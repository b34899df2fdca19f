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
    """Backtracking gave up before exhausting the space.  Inconclusive,
    never evidence of nonexistence.  Carries the ingredient it gave up on,
    e.g. "MS(7;4)" or "MS(8;4) profile 1:0:7", and the nodes spent, at
    least 1; 0 nodes means that nothing was searched (an odd coprime
    MR(a,b) with both sides at least 7 and prime to 15, refused at once)."""

    def __init__(self, ingredient: str, nodes: int):
        super().__init__(ingredient, nodes)  # args rebuild it when unpickled
        self.ingredient = ingredient
        self.nodes = nodes

    def __str__(self):
        if self.nodes == 0:
            return (f"{self.ingredient}: no construction for odd coprime sides "
                    "both >= 7 and prime to 15; nothing was searched")
        return f"{self.ingredient}: node budget exhausted after {self.nodes} nodes"


class CacheError(HoleyMagicError):
    """The ingredient cache could not be read or written."""


class CorruptCache(CacheError):
    """A cache entry failed re-verification on load."""
