"""Exception types shared across the package."""


class HoleyMagicError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(HoleyMagicError):
    """Grid dimensions or spec parameters are inconsistent."""


class ParseError(HoleyMagicError):
    """Malformed MRX text.  Carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(message, line)  # args rebuild it when unpickled
        self.message = message
        self.line = line

    def __str__(self):
        return f"line {self.line}: {self.message}"


class ParityError(HoleyMagicError):
    """Parameters violate a parity hypothesis."""


class NotConstructible(HoleyMagicError):
    """The requested object does not exist for these parameters."""


class BadIngredient(HoleyMagicError):
    """An ingredient grid failed validation inside a constructor."""


class SearchBudgetExceeded(HoleyMagicError):
    """No ingredient within the search's means.  Inconclusive, never
    evidence of nonexistence.  Carries the ingredient given up on, e.g.
    "MS(7;4)" or "MS(8;4) profile 1:0:7", the nodes spent, and why, in the
    raiser's words; by default the node budget ran out.  A search spends at
    least 1 node, so 0 nodes means that nothing was searched."""

    def __init__(self, ingredient: str, nodes: int, why: str = ""):
        why = why or f"node budget exhausted after {nodes} nodes"
        super().__init__(ingredient, nodes, why)  # args rebuild it when unpickled
        self.ingredient = ingredient
        self.nodes = nodes
        self.why = why

    def __str__(self):
        return f"{self.ingredient}: {self.why}"


class CacheError(HoleyMagicError):
    """The ingredient cache could not be read or written."""


class CorruptCache(CacheError):
    """A cache entry failed re-verification on load."""
