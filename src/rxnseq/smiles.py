"""Lexing and structure checking for SMILES and reaction SMILES.

The lexer splits a string into atom, bond, branch, ring-closure, dot and
(for reaction strings) ``>`` separator tokens.  Structure checking lives in
:func:`validate`, which never raises: it returns a list of positioned
failures so callers can score malformed model output instead of crashing
on it.

Every grammar decision about bonds is made once, in :func:`_assemble`,
which molecule graphs and template patterns both build on: a bond written
without a symbol is aromatic (``:``) between two aromatic atoms and single
(``-``) otherwise, so every bond it returns carries an explicit symbol.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

__all__ = [
    "AROMATIC_SUBSET",
    "BracketFields",
    "MalformedReaction",
    "ORGANIC_SUBSET",
    "ReactionParts",
    "SmilesError",
    "Token",
    "TokenKind",
    "TokenSequence",
    "TokenizeError",
    "UnrecognizedCharacter",
    "UnterminatedBracket",
    "VALENCES",
    "ValidationFailure",
    "ValidationKind",
    "ValidationResult",
    "bare_hydrogen_fill",
    "detokenize",
    "format_bracket",
    "split_reaction",
    "tokenize",
    "validate",
]

ORGANIC_SUBSET = ("Cl", "Br", "B", "C", "N", "O", "P", "S", "F", "I")
AROMATIC_SUBSET = ("b", "c", "n", "o", "p", "s")

# Valence ladders for implicit-hydrogen fill on bare atoms, lowest first.
# An aromatic atom devotes one bonding slot to the ring system, so its
# ladder is applied to (bond order sum + 1).
VALENCES: dict[str, tuple[int, ...]] = {
    "B": (3,),
    "C": (4,),
    "N": (3, 5),
    "O": (2,),
    "P": (3, 5),
    "S": (2, 4, 6),
    "F": (1,),
    "Cl": (1,),
    "Br": (1,),
    "I": (1,),
}

_BOND_ORDER_VALUE = {"-": 1, "=": 2, "#": 3, ":": 1, "/": 1, "\\": 1}


class SmilesError(ValueError):
    """Base class for lexing and reaction-splitting errors."""


class TokenizeError(SmilesError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class UnrecognizedCharacter(TokenizeError):
    def __init__(self, position: int, detail: str = ""):
        suffix = f" ({detail})" if detail else ""
        super().__init__(f"unrecognized character{suffix}", position)


class UnterminatedBracket(TokenizeError):
    def __init__(self, position: int):
        super().__init__("unterminated bracket atom", position)


class MalformedReaction(SmilesError):
    """Raised when a reaction string does not contain exactly two '>'."""


class TokenKind(enum.Enum):
    ORGANIC_ATOM = "organic_atom"
    AROMATIC_ATOM = "aromatic_atom"
    BRACKET_ATOM = "bracket_atom"
    BOND = "bond"
    BRANCH_OPEN = "branch_open"
    BRANCH_CLOSE = "branch_close"
    RING_CLOSURE = "ring_closure"
    DOT = "dot"
    SEPARATOR = "separator"


_ATOM_KINDS = (TokenKind.ORGANIC_ATOM, TokenKind.AROMATIC_ATOM, TokenKind.BRACKET_ATOM)

_BRACKET_RE = re.compile(
    r"\A\[(?P<isotope>\d+)?"
    r"(?P<element>\*|[A-Z][a-z]?|se|as|[bcnops])"
    r"(?P<chirality>@@|@(?:TH|AL|SP|TB|OH)\d{1,2}|@)?"
    r"(?P<hcount>H\d*)?"
    r"(?P<charge>[+-]\d{1,2}|\+{1,3}|-{1,3})?"
    r"(?::(?P<atom_map>\d+))?\]\Z"
)


@dataclass(frozen=True)
class BracketFields:
    """Parsed payload of a bracket atom."""

    element: str
    isotope: int | None = None
    chirality: str | None = None
    hcount: int = 0
    charge: int = 0
    atom_map: int | None = None

    @property
    def aromatic(self) -> bool:
        return self.element in ("b", "c", "n", "o", "p", "s", "se", "as")


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    bracket: BracketFields | None = None

    def is_atom(self) -> bool:
        return self.kind in _ATOM_KINDS

    def ring_number(self) -> int:
        if self.kind is not TokenKind.RING_CLOSURE:
            raise ValueError(f"not a ring closure token: {self.text!r}")
        return int(self.text[1:]) if self.text.startswith("%") else int(self.text)


TokenSequence = list[Token]


@dataclass(frozen=True)
class ReactionParts:
    reactants: str
    reagents: str
    products: str

    def join(self) -> str:
        return f"{self.reactants}>{self.reagents}>{self.products}"


def _parse_charge(text: str | None) -> int:
    if not text:
        return 0
    if text in ("+", "-"):
        return 1 if text == "+" else -1
    if set(text) == {"+"}:
        return len(text)
    if set(text) == {"-"}:
        return -len(text)
    return int(text)


def _parse_bracket(raw: str, position: int) -> BracketFields:
    m = _BRACKET_RE.match(raw)
    if m is None:
        raise UnrecognizedCharacter(position, f"malformed bracket atom {raw!r}")
    hcount = m.group("hcount")
    if hcount is None:
        h = 0
    elif hcount == "H":
        h = 1
    else:
        h = int(hcount[1:])
    isotope = m.group("isotope")
    atom_map = m.group("atom_map")
    return BracketFields(
        element=m.group("element"),
        isotope=int(isotope) if isotope is not None else None,
        chirality=m.group("chirality"),
        hcount=h,
        charge=_parse_charge(m.group("charge")),
        atom_map=int(atom_map) if atom_map is not None else None,
    )


def format_bracket(fields: BracketFields) -> str:
    """Render bracket fields back to text in a fixed normal form."""
    parts = ["["]
    if fields.isotope is not None:
        parts.append(str(fields.isotope))
    parts.append(fields.element)
    if fields.chirality:
        parts.append(fields.chirality)
    if fields.hcount == 1:
        parts.append("H")
    elif fields.hcount > 1:
        parts.append(f"H{fields.hcount}")
    if fields.charge == 1:
        parts.append("+")
    elif fields.charge == -1:
        parts.append("-")
    elif fields.charge > 1:
        parts.append(f"+{fields.charge}")
    elif fields.charge < -1:
        parts.append(str(fields.charge))
    if fields.atom_map is not None:
        parts.append(f":{fields.atom_map}")
    parts.append("]")
    return "".join(parts)


def tokenize(text: str) -> TokenSequence:
    """Split a SMILES or reaction SMILES string into tokens.

    ``Cl`` and ``Br`` are consumed greedily; bracket atoms are one token
    whose payload is parsed into :class:`BracketFields`; ``%NN`` is a
    two-digit ring closure; ``>`` becomes a separator token.  The empty
    string yields an empty list (an empty reaction part).
    """
    tokens: list[Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "[":
            end = text.find("]", i)
            if end < 0:
                raise UnterminatedBracket(i)
            raw = text[i : end + 1]
            tokens.append(Token(TokenKind.BRACKET_ATOM, raw, _parse_bracket(raw, i)))
            i = end + 1
        elif text.startswith(("Cl", "Br"), i):
            tokens.append(Token(TokenKind.ORGANIC_ATOM, text[i : i + 2]))
            i += 2
        elif ch in "BCNOPSFI":
            tokens.append(Token(TokenKind.ORGANIC_ATOM, ch))
            i += 1
        elif ch in "bcnops":
            tokens.append(Token(TokenKind.AROMATIC_ATOM, ch))
            i += 1
        elif ch in "-=#/\\:":
            tokens.append(Token(TokenKind.BOND, ch))
            i += 1
        elif ch == "(":
            tokens.append(Token(TokenKind.BRANCH_OPEN, ch))
            i += 1
        elif ch == ")":
            tokens.append(Token(TokenKind.BRANCH_CLOSE, ch))
            i += 1
        elif ch.isdigit():
            tokens.append(Token(TokenKind.RING_CLOSURE, ch))
            i += 1
        elif ch == "%":
            digits = text[i + 1 : i + 3]
            if len(digits) == 2 and digits.isdigit():
                tokens.append(Token(TokenKind.RING_CLOSURE, text[i : i + 3]))
                i += 3
            else:
                raise UnrecognizedCharacter(i, "'%' must start a two-digit ring closure")
        elif ch == ".":
            tokens.append(Token(TokenKind.DOT, ch))
            i += 1
        elif ch == ">":
            tokens.append(Token(TokenKind.SEPARATOR, ch))
            i += 1
        else:
            raise UnrecognizedCharacter(i, repr(ch))
    return tokens


def detokenize(tokens: TokenSequence) -> str:
    return "".join(t.text for t in tokens)


def split_reaction(text: str) -> ReactionParts:
    """Split ``reactants>reagents>products``; any part may be empty."""
    parts = text.split(">")
    if len(parts) != 3:
        raise MalformedReaction(
            f"expected exactly two '>' separators, found {len(parts) - 1}"
        )
    return ReactionParts(*parts)


class ValidationKind(enum.Enum):
    UNCLOSED_BRANCH = "unclosed_branch"
    UNMATCHED_BRANCH_CLOSE = "unmatched_branch_close"
    EMPTY_BRANCH = "empty_branch"
    MISPLACED_BRANCH = "misplaced_branch"
    UNPAIRED_RING_CLOSURE = "unpaired_ring_closure"
    MISPLACED_RING_CLOSURE = "misplaced_ring_closure"
    RING_SELF_BOND = "ring_self_bond"
    DUPLICATE_RING_BOND = "duplicate_ring_bond"
    CONFLICTING_RING_BOND = "conflicting_ring_bond"
    MISPLACED_BOND = "misplaced_bond"
    MISPLACED_DOT = "misplaced_dot"
    UNEXPECTED_SEPARATOR = "unexpected_separator"


@dataclass(frozen=True)
class ValidationFailure:
    kind: ValidationKind
    index: int  # token index the failure is anchored to


@dataclass(frozen=True)
class ValidationResult:
    failures: tuple[ValidationFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class TopologyBond:
    """Bond between atom ordinals with its explicit symbol, e.g. ``:``."""

    a: int
    b: int
    symbol: str


def _assemble(events: list[tuple[str, object]]) -> tuple[
    list[int], list[TopologyBond], list[ValidationFailure]
]:
    """Build bonds from a linear event stream.

    ``events`` entries are ``(kind, value)`` with kind in ``atom``, ``bond``,
    ``open``, ``close``, ``ring``, ``break``; value is whether the atom is
    aromatic for ``atom``, the bond symbol for ``bond``, the ring number for
    ``ring``, otherwise ignored.  Returns atom event indices, bonds over atom
    ordinals, and positioned failures.

    This is the one place the implicit-bond rule lives: a bond written
    without a symbol becomes ``:`` between two aromatic atoms and ``-``
    otherwise.
    """
    atoms: list[int] = []
    aromatic: list[bool] = []
    bonds: list[TopologyBond] = []
    failures: list[ValidationFailure] = []
    edge_set: set[frozenset[int]] = set()
    prev: int | None = None
    pending: tuple[str, int] | None = None  # (symbol, event index)
    stack: list[tuple[int | None, bool]] = []  # (anchor, saw_atom_since_open)
    ring_open: dict[int, tuple[int, str | None, int]] = {}

    def fail(kind: ValidationKind, index: int) -> None:
        failures.append(ValidationFailure(kind, index))

    def add_bond(a: int, b: int, symbol: str | None, index: int) -> None:
        key = frozenset((a, b))
        if key in edge_set:
            fail(ValidationKind.DUPLICATE_RING_BOND, index)
            return
        edge_set.add(key)
        if symbol is None:
            symbol = ":" if aromatic[a] and aromatic[b] else "-"
        bonds.append(TopologyBond(a, b, symbol))

    for idx, (kind, value) in enumerate(events):
        if kind == "atom":
            ordinal = len(atoms)
            atoms.append(idx)
            aromatic.append(bool(value))
            if prev is not None:
                add_bond(prev, ordinal, pending[0] if pending else None, idx)
            elif pending is not None:
                fail(ValidationKind.MISPLACED_BOND, pending[1])
            pending = None
            prev = ordinal
            stack = [(anchor, True) for anchor, _ in stack]
        elif kind == "bond":
            if pending is not None:
                fail(ValidationKind.MISPLACED_BOND, idx)
            if prev is None:
                fail(ValidationKind.MISPLACED_BOND, idx)
            else:
                pending = (str(value), idx)
        elif kind == "open":
            if prev is None:
                fail(ValidationKind.MISPLACED_BRANCH, idx)
            if pending is not None:
                fail(ValidationKind.MISPLACED_BOND, pending[1])
                pending = None
            stack.append((prev, False))
        elif kind == "close":
            if pending is not None:
                fail(ValidationKind.MISPLACED_BOND, pending[1])
                pending = None
            if not stack:
                fail(ValidationKind.UNMATCHED_BRANCH_CLOSE, idx)
                continue
            anchor, saw_atom = stack.pop()
            if not saw_atom:
                fail(ValidationKind.EMPTY_BRANCH, idx)
            prev = anchor
        elif kind == "ring":
            if prev is None:
                fail(ValidationKind.MISPLACED_RING_CLOSURE, idx)
                pending = None
                continue
            number = int(value)  # type: ignore[arg-type]
            symbol = pending[0] if pending else None
            pending = None
            if number in ring_open:
                other, other_symbol, _ = ring_open.pop(number)
                if other == prev:
                    fail(ValidationKind.RING_SELF_BOND, idx)
                    continue
                if symbol and other_symbol and symbol != other_symbol:
                    fail(ValidationKind.CONFLICTING_RING_BOND, idx)
                    continue
                add_bond(other, prev, symbol or other_symbol, idx)
            else:
                ring_open[number] = (prev, symbol, idx)
        elif kind == "break":
            if pending is not None:
                fail(ValidationKind.MISPLACED_BOND, pending[1])
                pending = None
            if prev is None:
                # leading dot or dot directly after another break
                fail(ValidationKind.MISPLACED_DOT, idx)
            prev = None
        else:  # pragma: no cover - internal misuse
            raise ValueError(f"unknown event kind {kind!r}")

    if pending is not None:
        fail(ValidationKind.MISPLACED_BOND, pending[1])
    for _, (_, _, idx) in ring_open.items():
        fail(ValidationKind.UNPAIRED_RING_CLOSURE, idx)
    for _ in stack:
        fail(ValidationKind.UNCLOSED_BRANCH, len(events) - 1 if events else 0)
    if events and events[-1][0] == "break":
        fail(ValidationKind.MISPLACED_DOT, len(events) - 1)
    return atoms, bonds, failures


def _events(tokens: TokenSequence) -> list[tuple[str, object]]:
    out: list[tuple[str, object]] = []
    for t in tokens:
        if t.kind is TokenKind.AROMATIC_ATOM:
            out.append(("atom", True))
        elif t.kind is TokenKind.ORGANIC_ATOM:
            out.append(("atom", False))
        elif t.kind is TokenKind.BRACKET_ATOM:
            assert t.bracket is not None
            out.append(("atom", t.bracket.aromatic))
        elif t.kind is TokenKind.BOND:
            out.append(("bond", t.text))
        elif t.kind is TokenKind.BRANCH_OPEN:
            out.append(("open", None))
        elif t.kind is TokenKind.BRANCH_CLOSE:
            out.append(("close", None))
        elif t.kind is TokenKind.RING_CLOSURE:
            out.append(("ring", t.ring_number()))
        else:  # DOT and SEPARATOR both break the chain
            out.append(("break", None))
    return out


def _structure(tokens: TokenSequence) -> tuple[
    list[int], list[TopologyBond], ValidationResult
]:
    """One structure pass: atom token indices, bonds and the sorted failures."""
    atoms, bonds, failures = _assemble(_events(tokens))
    for i, t in enumerate(tokens):
        if t.kind is TokenKind.SEPARATOR:
            failures.append(ValidationFailure(ValidationKind.UNEXPECTED_SEPARATOR, i))
    failures.sort(key=lambda f: (f.index, f.kind.value))
    return atoms, bonds, ValidationResult(tuple(failures))


def validate(tokens: TokenSequence) -> ValidationResult:
    """Structure-check a token sequence without raising.

    Checks branch balance, ring-closure pairing, bond placement and dot
    placement.  ``>`` separators are rejected here: reaction strings must
    be split into parts before structural validation.
    """
    return _structure(tokens)[2]


def bare_hydrogen_fill(
    element: str, aromatic: bool, bond_order_sum: int
) -> int | None:
    """Hydrogen count a bare organic-subset atom would carry.

    Returns None when the element has no valence ladder or the bond order
    sum exceeds the largest allowed valence (no bare form exists).
    """
    ladder = VALENCES.get(element.capitalize() if len(element) == 1 else element)
    if ladder is None:
        return None
    need = bond_order_sum + (1 if aromatic else 0)
    if need > ladder[-1]:
        return None
    return min(v for v in ladder if v >= need) - need
