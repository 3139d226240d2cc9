"""Lexing and structure checking for SMILES and reaction SMILES.

One lexing loop splits a string into atom, bond, branch, ring-closure, dot
and (for reaction strings) ``>`` separator tokens.  The loop takes a
bracket reader, the one thing molecule and template-pattern grammars lex
differently: :func:`tokenize` reads a bracket atom into an :class:`Atom`,
``templates.parse_pattern`` into a pattern constraint.  Splitting a
reaction line into its parts is left to ``pipeline.parse_record``, which
raises this module's :class:`MalformedReaction`.

Structure checking and every grammar decision about bonds are made once,
in :func:`_assemble`, which reads the tokens of molecules and template
patterns alike.  It never raises: it returns positioned
:class:`ValidationFailure` values with the bonds, and
``molgraph.parse_graph`` raises them, sorted by position, as one
``InvalidStructure``, so callers can score malformed model output instead
of crashing on it.  A bond written without a symbol is aromatic (``:``)
between two aromatic atoms and single (``-``) otherwise, so every bond it
returns carries an explicit symbol.

Tokens and bonds are immutable tuples.  Every fixed-text token (a bare
atom, bond, branch, ring digit, dot or ``>``) is one shared
:class:`Token`; only bracket atoms and ``%NN`` ring closures are built per
occurrence.  Ring-closure and bracket digits are ASCII ``0``-``9`` only.
"""

from __future__ import annotations

import enum
import re
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

__all__ = [
    "AROMATIC_SUBSET",
    "Atom",
    "MalformedReaction",
    "ORGANIC_SUBSET",
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
    "bare_hydrogen_fill",
    "format_bracket",
    "tokenize",
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
    """A reaction line without exactly two '>', or with an empty molecule;
    raised by ``pipeline.parse_record``."""


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
    r"(?::\d+)?\]\Z",  # an atom map is accepted and dropped
    re.ASCII,
)


@dataclass(slots=True)
class Atom:
    """One heavy (or explicitly written) atom.

    ``element`` is capitalized (``N`` for ``[nH]``); an aromatic atom is
    written in lower case.  ``hcount`` None means "fill from the valence
    ladder at emission"; bracket atoms always carry an explicit count.
    """

    element: str
    aromatic: bool = False
    charge: int = 0
    hcount: int | None = None
    isotope: int | None = None
    chirality: str | None = None

    def __copy__(self) -> Atom:
        # the constructor: copy's generic path rebuilds a slotted object
        # one attribute at a time
        return Atom(
            self.element, self.aromatic, self.charge, self.hcount, self.isotope, self.chirality
        )


class Token(NamedTuple):
    kind: TokenKind
    text: str
    # What the bracket reader made of a bracket atom: an Atom from
    # tokenize, a pattern constraint from templates.parse_pattern.
    atom: Atom | None = None

    def is_atom(self) -> bool:
        return self.kind in _ATOM_KINDS

    def ring_number(self) -> int:
        if self.kind is not TokenKind.RING_CLOSURE:
            raise ValueError(f"not a ring closure token: {self.text!r}")
        return int(self.text[1:]) if self.text.startswith("%") else int(self.text)


TokenSequence = list[Token]


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


def _parse_bracket(raw: str, position: int) -> Atom:
    m = _BRACKET_RE.match(raw)
    if m is None:
        raise UnrecognizedCharacter(position, f"malformed bracket atom {raw!r}")
    element = m.group("element")
    hcount = m.group("hcount")
    isotope = m.group("isotope")
    return Atom(
        element=element.capitalize(),
        aromatic=element.islower(),
        charge=_parse_charge(m.group("charge")),
        hcount=int(hcount[1:] or 1) if hcount else 0,
        isotope=int(isotope) if isotope is not None else None,
        chirality=m.group("chirality"),
    )


def format_bracket(atom: Atom, hcount: int) -> str:
    """Write ``atom`` with ``hcount`` hydrogens as a bracket atom, in a
    fixed normal form."""
    parts = ["["]
    if atom.isotope is not None:
        parts.append(str(atom.isotope))
    parts.append(atom.element.lower() if atom.aromatic else atom.element)
    if atom.chirality:
        parts.append(atom.chirality)
    if hcount == 1:
        parts.append("H")
    elif hcount > 1:
        parts.append(f"H{hcount}")
    if atom.charge == 1:
        parts.append("+")
    elif atom.charge == -1:
        parts.append("-")
    elif atom.charge > 1:
        parts.append(f"+{atom.charge}")
    elif atom.charge < -1:
        parts.append(str(atom.charge))
    parts.append("]")
    return "".join(parts)


# The one shared token of each fixed text, keyed on that text.
_FIXED_TOKENS = {
    text: Token(kind, text)
    for kind, texts in (
        (TokenKind.ORGANIC_ATOM, ORGANIC_SUBSET),
        (TokenKind.AROMATIC_ATOM, AROMATIC_SUBSET),
        (TokenKind.BOND, tuple("-=#/\\:")),
        (TokenKind.BRANCH_OPEN, ("(",)),
        (TokenKind.BRANCH_CLOSE, (")",)),
        (TokenKind.RING_CLOSURE, tuple("0123456789")),
        (TokenKind.DOT, (".",)),
        (TokenKind.SEPARATOR, (">",)),
    )
    for text in texts
}


def _lex(text: str, read_bracket: Callable[[str, int], object]) -> Iterator[Token]:
    """Yield the tokens of ``text`` in order; ``read_bracket(raw, position)``
    reads each bracket atom into its token's ``atom``.

    Tokens are yielded as they are lexed, so a caller that rejects one
    stops before the lexer reaches anything after it.
    """
    fixed = _FIXED_TOKENS
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        token = fixed.get(ch)
        if token is not None:
            if (ch == "C" or ch == "B") and text.startswith(("Cl", "Br"), i):
                yield fixed[text[i : i + 2]]
                i += 2
            else:
                yield token
                i += 1
        elif ch == "[":
            end = text.find("]", i)
            if end < 0:
                raise UnterminatedBracket(i)
            raw = text[i : end + 1]
            yield Token(TokenKind.BRACKET_ATOM, raw, read_bracket(raw, i))
            i = end + 1
        elif ch == "%":
            digits = text[i + 1 : i + 3]
            if len(digits) == 2 and digits.isascii() and digits.isdigit():
                yield Token(TokenKind.RING_CLOSURE, text[i : i + 3])
                i += 3
            else:
                raise UnrecognizedCharacter(i, "'%' must start a two-digit ring closure")
        else:
            raise UnrecognizedCharacter(i, repr(ch))


def tokenize(text: str) -> TokenSequence:
    """Split a SMILES or reaction SMILES string into tokens.

    ``Cl`` and ``Br`` are consumed greedily; bracket atoms are one token
    whose payload is read into an :class:`Atom` (an atom map is dropped);
    ``%NN`` is a two-digit ring closure; ``>`` becomes a separator token.
    The empty string yields an empty list (an empty reaction part).
    """
    return list(_lex(text, _parse_bracket))


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
    position: int  # first character of the token the failure is anchored to


class TopologyBond(NamedTuple):
    """Bond between atom ordinals with its explicit symbol, e.g. ``:``."""

    a: int
    b: int
    symbol: str


def _assemble(tokens: TokenSequence) -> tuple[
    list[int], list[TopologyBond], list[ValidationFailure]
]:
    """Build bonds from a token sequence.

    Returns the indices of the atom tokens, bonds over atom ordinals, and
    failures in the order they were found, each at the first character of
    the token it is anchored to.  A dot or ``>`` separator breaks the chain;
    a separator is also a failure, since reaction strings must be split into
    parts first.

    This is the one place the implicit-bond rule lives: a bond written
    without a symbol becomes ``:`` between two aromatic atoms and ``-``
    otherwise.
    """
    atoms: list[int] = []
    aromatic: list[bool] = []
    bonds: list[TopologyBond] = []
    found: list[tuple[ValidationKind, int]] = []  # (kind, token index)
    edge_set: set[tuple[int, int]] = set()  # (lower ordinal, higher)
    prev: int | None = None
    pending: tuple[str, int] | None = None  # (symbol, token index)
    stack: list[tuple[int | None, bool]] = []  # (anchor, saw_atom_since_open)
    ring_open: dict[int, tuple[int, str | None, int]] = {}

    def fail(kind: ValidationKind, index: int) -> None:
        found.append((kind, index))

    def add_bond(a: int, b: int, symbol: str | None, index: int) -> None:
        key = (a, b) if a < b else (b, a)
        if key in edge_set:
            fail(ValidationKind.DUPLICATE_RING_BOND, index)
            return
        edge_set.add(key)
        if symbol is None:
            symbol = ":" if aromatic[a] and aromatic[b] else "-"
        bonds.append(TopologyBond(a, b, symbol))

    for idx, t in enumerate(tokens):
        kind = t.kind
        if kind in _ATOM_KINDS:
            ordinal = len(atoms)
            atoms.append(idx)
            # a pattern's bracket atom may leave aromaticity open (None)
            aromatic.append(
                kind is TokenKind.AROMATIC_ATOM
                or (t.atom is not None and t.atom.aromatic is True)
            )
            if prev is not None:
                add_bond(prev, ordinal, pending[0] if pending else None, idx)
            elif pending is not None:
                fail(ValidationKind.MISPLACED_BOND, pending[1])
            pending = None
            prev = ordinal
            stack = [(anchor, True) for anchor, _ in stack]
        elif kind is TokenKind.BOND:
            if pending is not None:
                fail(ValidationKind.MISPLACED_BOND, idx)
            if prev is None:
                fail(ValidationKind.MISPLACED_BOND, idx)
            else:
                pending = (t.text, idx)
        elif kind is TokenKind.BRANCH_OPEN:
            if prev is None:
                fail(ValidationKind.MISPLACED_BRANCH, idx)
            if pending is not None:
                fail(ValidationKind.MISPLACED_BOND, pending[1])
                pending = None
            stack.append((prev, False))
        elif kind is TokenKind.BRANCH_CLOSE:
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
        elif kind is TokenKind.RING_CLOSURE:
            if prev is None:
                fail(ValidationKind.MISPLACED_RING_CLOSURE, idx)
                pending = None
                continue
            number = t.ring_number()
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
        else:  # DOT or SEPARATOR
            if kind is TokenKind.SEPARATOR:
                fail(ValidationKind.UNEXPECTED_SEPARATOR, idx)
            if pending is not None:
                fail(ValidationKind.MISPLACED_BOND, pending[1])
                pending = None
            if prev is None:
                # leading dot or dot directly after another break
                fail(ValidationKind.MISPLACED_DOT, idx)
            prev = None

    if pending is not None:
        fail(ValidationKind.MISPLACED_BOND, pending[1])
    for _, (_, _, idx) in ring_open.items():
        fail(ValidationKind.UNPAIRED_RING_CLOSURE, idx)
    for _ in stack:
        fail(ValidationKind.UNCLOSED_BRANCH, len(tokens) - 1 if tokens else 0)
    # a trailing break, unless the loop already reported it as following one
    trailing = (ValidationKind.MISPLACED_DOT, len(tokens) - 1)
    if (
        tokens
        and tokens[-1].kind in (TokenKind.DOT, TokenKind.SEPARATOR)
        and trailing not in found
    ):
        fail(*trailing)
    if not found:
        return atoms, bonds, []
    # token indices become character offsets only once a failure exists
    offsets = list(accumulate((len(t.text) for t in tokens), initial=0))
    return atoms, bonds, [ValidationFailure(kind, offsets[i]) for kind, i in found]


def _fill_row(ladder: tuple[int, ...], aromatic_slot: int) -> tuple[int, ...]:
    """Hydrogen fill at each bond order sum that leaves a bare form."""
    return tuple(
        min(v for v in ladder if v >= need) - need
        for need in range(aromatic_slot, ladder[-1] + 1)
    )


# The valence ladders as one lookup: _HYDROGEN_FILL[element][aromatic][s]
# is the fill at bond order sum s.  A single-letter element is also listed
# in lower case.
_HYDROGEN_FILL = {
    name: (_fill_row(ladder, 0), _fill_row(ladder, 1))
    for element, ladder in VALENCES.items()
    for name in ((element, element.lower()) if len(element) == 1 else (element,))
}


def bare_hydrogen_fill(
    element: str, aromatic: bool, bond_order_sum: int
) -> int | None:
    """Hydrogen count a bare organic-subset atom would carry.

    Returns None when the element has no valence ladder or the bond order
    sum exceeds the largest allowed valence (no bare form exists).
    """
    fills = _HYDROGEN_FILL.get(element)
    if fills is None:
        return None
    fills = fills[1 if aromatic else 0]
    if bond_order_sum >= len(fills):
        return None
    return fills[bond_order_sum]
