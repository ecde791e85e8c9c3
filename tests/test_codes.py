"""Unit tests for the code algebra and convexity metrics."""

from fractions import Fraction

import pytest

from bechex.codes import (
    BENZENE,
    Code,
    ConvexityKind,
    canonical,
    classify,
    concat,
    convexity_deficit,
    equivalent,
    is_k_convex,
    min_window_average,
    one_contact_attach,
    parse_code,
    reverse,
    rotate,
    winding,
)
from bechex.errors import (
    BenzeneNotComposable,
    InvalidSymbols,
    SplitOutOfRange,
    WindowEmpty,
    WindowTooLong,
)


class TestConstruction:
    def test_parse_roundtrip(self):
        assert str(parse_code("5351")) == "5351"
        assert parse_code(" 55 \n").symbols == (5, 5)

    def test_benzene_is_special(self):
        assert BENZENE.is_benzene
        assert str(BENZENE) == "6"
        assert len(BENZENE) == 1

    @pytest.mark.parametrize(
        "bad", ["", "0", "7", "56", "65", "66", "1a", "5-1", "\u00b23", "\u0663\u0663", "\uff15\uff15"]
    )
    def test_rejects_bad_symbols(self, bad):
        with pytest.raises(InvalidSymbols):
            parse_code(bad)

    def test_rejects_empty_tuple(self):
        with pytest.raises(InvalidSymbols):
            Code(())


class TestAlgebra:
    def test_concat_appends(self):
        assert str(concat(parse_code("53"), parse_code("51"))) == "5351"

    def test_concat_rejects_benzene(self):
        with pytest.raises(BenzeneNotComposable):
            concat(BENZENE, parse_code("55"))
        with pytest.raises(BenzeneNotComposable):
            concat(parse_code("55"), BENZENE)

    def test_rotate_right_shift(self):
        c = parse_code("1234512345".replace("0", ""))
        assert str(rotate(parse_code("5351"), 1)) == "1535"
        assert str(rotate(parse_code("5351"), -1)) == "3515"
        assert rotate(c, len(c)) == c
        assert rotate(c, 0) is c

    def test_reverse(self):
        assert str(reverse(parse_code("5351"))) == "1535"
        assert reverse(reverse(parse_code("52325212"))) == parse_code("52325212")

    def test_canonical_is_max_over_rotations_and_reversal(self):
        # brute-force the definition on a fixed word
        c = parse_code("512523")
        words = set()
        for w in (c.symbols, c.symbols[::-1]):
            for i in range(len(w)):
                words.add(w[i:] + w[:i])
        assert canonical(c).symbols == max(words)
        assert str(canonical(c)) == "532521"

    @pytest.mark.parametrize(
        "raw,canon",
        [
            ("55", "55"),
            ("5153", "5351"),
            ("4225133", "5224331"),
            ("1535", "5351"),
            ("6", "6"),
        ],
    )
    def test_canonical_examples(self, raw, canon):
        assert str(canonical(parse_code(raw))) == canon

    def test_equivalent(self):
        assert equivalent(parse_code("1535"), parse_code("5351"))
        assert not equivalent(parse_code("55"), parse_code("5351"))


class TestWinding:
    @pytest.mark.parametrize(
        "raw,expected",
        [("55", 6), ("5351", 6), ("444", 6), ("333333", 6), ("6", 4), ("11", -2)],
    )
    def test_values(self, raw, expected):
        assert winding(parse_code(raw)) == expected

    def test_additive_under_concat(self):
        a, b = parse_code("5312"), parse_code("225")
        assert winding(concat(a, b)) == winding(a) + winding(b)


class TestWindows:
    def test_exact_fraction(self):
        assert min_window_average(parse_code("5351"), 2) == Fraction(6, 2)
        assert min_window_average(parse_code("5351"), 1) == Fraction(1)
        assert min_window_average(parse_code("5351"), 4) == Fraction(14, 4)

    def test_window_bounds(self):
        with pytest.raises(WindowEmpty):
            min_window_average(parse_code("55"), 0)
        with pytest.raises(WindowTooLong):
            min_window_average(parse_code("55"), 3)

    def test_windows_are_cyclic(self):
        # the bad window 1..1 wraps around the end of the written word
        assert min_window_average(parse_code("15551"), 2) == Fraction(2, 2)


class TestDeficit:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("6", 0),
            ("55", 0),
            ("444", 0),
            ("4343", 0),
            ("5351", 1),
            ("513513", 1),
            ("532521", 2),
            ("52325212", 3),
            ("5232252212", 4),
            ("523315151112", 6),
            ("53323325211211", 8),
        ],
    )
    def test_values(self, raw, expected):
        assert convexity_deficit(parse_code(raw)) == expected

    @pytest.mark.parametrize("raw", ["1", "11", "21", "111111"])
    def test_undefined_when_no_window_reaches_two(self, raw):
        assert convexity_deficit(parse_code(raw)) is None
        assert winding(parse_code(raw)) <= 0

    def test_matches_window_definition(self):
        # deficit k <=> every (k+1)-window has average >= 2, and k is least
        c = parse_code("53323325211211")
        k = convexity_deficit(c)
        assert min_window_average(c, k + 1) >= 2
        assert min_window_average(c, k) < 2

    def test_is_k_convex(self):
        c = parse_code("5351")
        assert not is_k_convex(c, 0)
        assert is_k_convex(c, 1)
        assert is_k_convex(c, 7)
        assert not is_k_convex(parse_code("11"), 5)
        with pytest.raises(ValueError):
            is_k_convex(c, -1)


class TestClassify:
    @pytest.mark.parametrize(
        "raw,kind,deficit",
        [
            ("55", ConvexityKind.CONVEX, 0),
            ("333333", ConvexityKind.CONVEX, 0),
            ("5351", ConvexityKind.PSEUDO_CONVEX, 1),
            ("513513", ConvexityKind.PSEUDO_CONVEX, 1),
            ("53251", ConvexityKind.QUASI_CONVEX, 1),
            ("52325212", ConvexityKind.GENERAL, 3),
            ("1", ConvexityKind.GENERAL, None),
        ],
    )
    def test_examples(self, raw, kind, deficit):
        got = classify(parse_code(raw))
        assert got.kind is kind
        assert got.deficit == deficit

    def test_class_matches_deficit_buckets(self):
        # convex <=> deficit 0; pseudo- or quasi-convex <=> deficit 1
        import itertools

        for n in range(1, 7):
            for syms in itertools.product(range(1, 6), repeat=n):
                got = classify(Code(syms))
                if got.kind is ConvexityKind.CONVEX:
                    assert got.deficit == 0
                elif got.kind in (
                    ConvexityKind.PSEUDO_CONVEX,
                    ConvexityKind.QUASI_CONVEX,
                ):
                    assert got.deficit == 1
                else:
                    assert got.deficit != 0 and got.deficit != 1

    def test_invariant_under_rotation_and_reversal(self):
        c = parse_code("5312412")
        base = classify(c)
        for k in range(len(c)):
            assert classify(rotate(c, k)) == base
        assert classify(reverse(c)) == base


class TestOneContactAttach:
    def test_grows_naphthalene_to_known_chains(self):
        two = parse_code("55")
        assert equivalent(one_contact_attach(two, 0, 1), parse_code("5351"))
        assert equivalent(one_contact_attach(two, 0, 2), parse_code("5252"))

    def test_preserves_winding(self):
        c = parse_code("53323325211211")
        grown = one_contact_attach(c, 0, 2)
        assert winding(grown) == winding(c)
        assert len(grown) == len(c) + 2

    def test_split_bounds(self):
        c = parse_code("5351")
        assert one_contact_attach(c, 1, 1).symbols == (5, 1, 5, 1, 5, 1)
        with pytest.raises(SplitOutOfRange):
            one_contact_attach(c, 1, 2)  # 2 + s2 = 2 leaves s2 = 0
        with pytest.raises(SplitOutOfRange):
            one_contact_attach(c, 3, 1)  # symbol 1 cannot be split
        with pytest.raises(SplitOutOfRange):
            one_contact_attach(c, 0, 4)  # 4 + s2 = 4 leaves s2 = 0
        with pytest.raises(IndexError):
            one_contact_attach(c, 9, 1)

    def test_benzene_rejected(self):
        with pytest.raises(BenzeneNotComposable):
            one_contact_attach(BENZENE, 0, 1)
