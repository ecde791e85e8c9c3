"""Exception types shared across the package."""


class BechexError(Exception):
    """Base class for every error raised by bechex."""


class InvalidSymbols(BechexError):
    """Text or symbols that do not form a boundary-edges code."""


class BenzeneNotComposable(BechexError):
    """The one-symbol benzene code takes part in no composition."""


class WindowEmpty(BechexError):
    """Cyclic window length below 1."""


class WindowTooLong(BechexError):
    """Cyclic window length above the code length."""


class SplitOutOfRange(BechexError):
    """Symbol split that no one-contact attachment can realise."""


class NotClosed(BechexError):
    """Boundary walk fails to return to its start vertex and direction."""


class SelfIntersecting(BechexError):
    """Boundary walk revisits a lattice vertex (helicene-like overlap)."""


class Disconnected(BechexError):
    """Cell set that is not edge-connected."""


class Holed(BechexError):
    """Cell set whose complement has a bounded component."""


class NotFound(BechexError):
    """Lookup key that matches no record."""


class ParamOutOfRange(BechexError, ValueError):
    """Parameters or options outside their admissible range."""


class ResourceLimit(BechexError):
    """Search request above the configured size cap."""


class ResumeError(BechexError):
    """Level files that a resumed enumeration cannot continue from."""
