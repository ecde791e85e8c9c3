"""Parametric families and the named-compound dataset."""

import itertools

import pytest

from bechex._kernel.common import MAX_CELLS
from bechex.codes import canonical, classify, convexity_deficit, equivalent, parse_code, winding
from bechex.errors import NotFound, ParamOutOfRange, SelfIntersecting
from bechex.families import (
    FAMILY_IDS,
    _FAMILIES,
    compounds,
    expected_cd,
    expected_h,
    family_description,
    find_by_code,
    generate,
    helicene,
    lookup,
    spiral,
)
from bechex.lattice import embed


class TestTemplates:
    def test_all_families_listed(self):
        assert set(FAMILY_IDS) == {
            "L", "M2", "M3", "Z3", "Ch", "P3", "P5", "O3", "B3", "P4",
            "DihedralS", "T", "Spiral", "Helicene",
        }
        for fid in FAMILY_IDS:
            assert family_description(fid)

    @pytest.mark.parametrize("fid", FAMILY_IDS)
    def test_grid_matches_closed_forms(self, fid):
        # embed each small member; hexagon count and deficit must match
        fam = _FAMILIES[fid.lower()]
        ranges = [range(m, m + 3) for m in fam.minima]
        for params in itertools.product(*ranges):
            code = generate(fid, *params)
            assert convexity_deficit(code) == expected_cd(fid, *params)
            if fid == "Helicene" and params[0] > 5:
                with pytest.raises(SelfIntersecting):
                    embed(code)
                continue
            shape = embed(code)
            assert shape.hexagons == expected_h(fid, *params), (fid, params)

    @pytest.mark.parametrize(
        "fid,params,named",
        [
            ("L", (2,), "55"),                      # naphthalene
            ("L", (3,), "5252"),                    # anthracene
            ("M2", (2, 2), "5351"),                 # phenanthrene
            ("Z3", (2, 2, 2), "513513"),            # chrysene
            ("M3", (2, 2, 2), "533511"),            # benzo(c)phenanthrene
            ("O3", (2,), "4343"),                   # pyrene
            ("P4", (2, 2), "441441"),               # perylene
            ("P5", (2, 2), "414333"),               # benzo(ghi)perylene
            ("T", (3,), "414141414141"),            # hexabenzocoronene
        ],
    )
    def test_small_members_are_named_compounds(self, fid, params, named):
        assert equivalent(generate(fid, *params), parse_code(named))

    @pytest.mark.parametrize(
        "fid,params,code",
        [
            ("L", (2,), "55"),
            ("L", (3,), "5252"),
            ("L", (4,), "522522"),
            ("M2", (2, 2), "5153"),
            ("M2", (2, 3), "512523"),
            ("M2", (3, 4), "5212252232"),
            ("M3", (2, 2, 2), "511533"),
            ("M3", (2, 3, 4), "522112523322"),
            ("M3", (4, 2, 3), "521221532232"),
            ("Z3", (2, 2, 2), "513513"),
            ("Z3", (2, 3, 4), "521223512232"),
            ("Z3", (4, 2, 3), "512322522123"),
        ],
    )
    def test_chain_members_are_generated_as_written(self, fid, params, code):
        # `bechex family` prints the raw code, not its canonical form
        assert str(generate(fid, *params)) == code

    def test_every_member_winds_like_a_benzenoid(self):
        for fid in FAMILY_IDS:
            fam = _FAMILIES[fid.lower()]
            params = tuple(m + 1 for m in fam.minima)
            assert winding(generate(fid, *params)) == 6

    def test_family_id_is_case_insensitive(self):
        assert equivalent(generate("m2", 2, 3), generate("M2", 2, 3))
        assert expected_h("m2", 2, 3) == 4

    def test_validation(self):
        with pytest.raises(NotFound):
            generate("Q7", 2)
        with pytest.raises(NotFound):
            family_description("nope")
        with pytest.raises(ParamOutOfRange):
            generate("L", 1)
        with pytest.raises(ParamOutOfRange):
            generate("M2", 2)
        with pytest.raises(ParamOutOfRange):
            generate("M2", 2, 2, 2)

    def test_members_above_the_cell_limit_are_refused(self):
        assert expected_h("L", 250) == MAX_CELLS
        assert embed(generate("L", 250)).hexagons == MAX_CELLS
        with pytest.raises(ParamOutOfRange, match="251 hexagons exceed the limit of 250"):
            generate("L", 251)


class TestSpiral:
    @pytest.mark.parametrize(
        "h,code",
        [(2, "55"), (3, "5351"), (4, "533511"), (5, "53335111"), (6, "5333252111")],
    )
    def test_first_members(self, h, code):
        assert str(spiral(h)) == code

    def test_deficit_law_and_embedding(self):
        for h in range(2, 26):
            c = spiral(h)
            assert convexity_deficit(c) == max(h - 2, 2 * h - 8)
            if h <= 14:
                assert embed(c).hexagons == h

    def test_matches_enumerated_maximum_at_small_h(self):
        # the spiral attains the largest deficit among unbranched shapes
        from bechex.enumeration import max_cd_unbranched_benzenoids

        for h in (4, 5, 6):
            value, witnesses = max_cd_unbranched_benzenoids(h)
            assert convexity_deficit(spiral(h)) == value
            assert str(canonical(spiral(h))) in {str(w) for w in witnesses}


class TestHelicene:
    @pytest.mark.parametrize(
        "h,code", [(2, "55"), (3, "5153"), (4, "511533"), (5, "51115333")]
    )
    def test_first_members(self, h, code):
        assert str(helicene(h)) == code

    def test_deficit_law(self):
        for h in range(2, 12):
            assert convexity_deficit(helicene(h)) == max(2 * h - 7, h - 2)

    def test_embeds_only_up_to_five_hexagons(self):
        for h in (2, 3, 4, 5):
            assert embed(helicene(h)).hexagons == h
        for h in (6, 7, 8):
            with pytest.raises(SelfIntersecting):
                embed(helicene(h))


class TestDataset:
    def test_row_count(self):
        assert len(compounds()) == 38

    def test_recompute_all_fields_from_codes(self):
        for item in compounds():
            code = parse_code(item.bec)
            got = classify(code)
            assert got.kind is item.kind, item.name
            assert got.deficit == item.deficit, item.name
            assert embed(code).hexagons == item.hexagons, item.name
            if not code.is_benzene:
                assert winding(code) == 6, item.name

    def test_lookup_by_name(self):
        assert lookup("pyrene").bec == "4343"
        assert lookup("Coronene").hexagons == 7
        assert lookup("benzo(c)phenanthrene").deficit == 2

    def test_lookup_by_synonym(self):
        assert lookup("naphthacene") is lookup("tetracene")
        merged = lookup("tribenzo[b,n,pqr]perylene")
        assert merged is lookup("tribenzo[b,ghi,n]perylene")
        assert len(merged.names) == 2

    def test_lookup_by_equivalent_code(self):
        # any rotation or reversal of a stored code finds its record
        assert lookup("3434").name == "pyrene"
        assert lookup("523512").name == "benz(a)anthracene"

    def test_find_by_code(self):
        assert find_by_code(parse_code("5252")).name == "anthracene"
        # the largest-deficit five-hexagon benzenoid is pentaphene
        assert find_by_code(parse_code("52325212")).name == "pentaphene"
        assert find_by_code(parse_code("5232252212")) is None

    def test_lookup_unknown(self):
        with pytest.raises(NotFound):
            lookup("unobtainium")
        with pytest.raises(NotFound):
            lookup("55555555")

    def test_optional_fields(self):
        assert lookup("benzene").cas == "71-43-2"
        assert lookup("triangulenyl").cas == ""
