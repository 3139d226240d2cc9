"""Molecular graphs: parsing, canonical emission, fingerprints.

The canonicalizer uses iterative neighborhood refinement of atom
invariants with tie-breaking by rank doubling.  A refinement round
re-keys only the atoms next to a piece that split off in the last round,
not counting each split's largest piece, and the ranks are those that
re-sorting every atom each round gives.  When a tied class cannot
be separated, its members are individualized one at a time and the
lexicographically smallest rendering over the search tree wins, so the
result is independent of input atom order.  The search prunes by
symmetry (McKay & Piperno 2014, arXiv 1301.1493): two leaves that render
the same string give an automorphism (the atom emitted k-th in one maps
to the atom emitted k-th in the other); a tied atom in the orbit of an
already-tried sibling, under the automorphisms found so far that fix the
node's individualized atoms, is skipped, and a branch whose first atom
joins such an orbit is abandoned.  A skipped branch is the image of a
tried one, so it holds the same renderings and the result is unchanged.
The search starts out knowing the cheapest automorphisms: the swap of
two equal terminal atoms that share a neighbour, a bond order and an
initial rank (a CF3's fluorines, a gem-dimethyl's methyls).  Such a swap
maps every leaf to one that renders the same string, so it prunes as a
found one does, without the leaves that would find it.  Equal means in
every field: ``C`` and ``[C@H3]`` share a rank, ``C`` and ``[CH3]`` a
text too, and neither pair swaps; a map that leaves rendering alike give
is dropped unless it holds in that sense.  A leaf is not rendered when
the map from the r-th ranked atom of the smallest rendering's first leaf
to its own r-th ranked atom is an automorphism: it renders that string,
and the map is the one the emission orders would give
(``c1cc(C(F)(F)F)ccc1-c1ccc(C(F)(F)F)cc1`` takes 4 leaves and 1
rendering).
:func:`canonical_form` hands back the graph, the string and the
automorphisms the search knew, the twin swaps and those its leaves found;
:func:`canonical_smiles` keeps the string alone.
``canonical_from_string`` remembers its most recent distinct inputs.
Stereo markers are carried through emission but excluded from ranking,
so two renderings of one molecule that differ only in stereo layout may
canonicalize differently; constitution is what is canonicalized.
"""

from __future__ import annotations

import copy
import enum
import functools
import random
from itertools import groupby
from operator import itemgetter
from dataclasses import dataclass
from typing import NamedTuple

from .smiles import (
    _BOND_ORDER_VALUE,
    AROMATIC_SUBSET,
    ORGANIC_SUBSET,
    Atom,
    TokenKind,
    TokenSequence,
    ValidationFailure,
    _assemble,
    bare_hydrogen_fill,
    format_bracket,
    tokenize,
)

__all__ = [
    "BOND_CLASS",
    "BOND_OF_SYMBOL",
    "BOND_VALENCE",
    "Atom",
    "BondOrder",
    "CanonicalForm",
    "CanonicalizationError",
    "Fingerprint",
    "GraphError",
    "InvalidStructure",
    "MolGraph",
    "ValenceError",
    "WidthMismatch",
    "canonical_form",
    "canonical_smiles",
    "canonical_from_string",
    "check_valence",
    "effective_hcount",
    "morgan_fingerprint",
    "parse_graph",
    "parse_string",
    "random_smiles",
    "strip_atom_maps",
    "tanimoto",
]


class GraphError(ValueError):
    """Base class for graph construction and emission errors."""


class InvalidStructure(GraphError):
    def __init__(self, failures: tuple[ValidationFailure, ...]):
        detail = ", ".join(f"{f.kind.value}@{f.position}" for f in failures)
        super().__init__(f"structurally invalid token sequence: {detail}")
        self.failures = failures


class ValenceError(GraphError):
    """A bare atom carries more bond order than its largest valence."""


class CanonicalizationError(GraphError):
    """The tie-breaking search visited more leaves than its budget allows.

    Symmetry alone no longer exhausts it: automorphism pruning keeps
    tetra-tert-butylmethane (31104 automorphisms) to 12 leaves.  What
    remains are graphs whose refinement leaves many atoms tied that no
    automorphism relates, such as large regular cages.
    """


class WidthMismatch(ValueError):
    """Fingerprints of different widths cannot be compared."""


class BondOrder(enum.Enum):
    SINGLE = "-"
    DOUBLE = "="
    TRIPLE = "#"
    AROMATIC = ":"
    UP = "/"
    DOWN = "\\"

    # Members are singletons: identity hashing keeps the bond tables'
    # lookups in C, where Enum's own __hash__ is a Python call.
    __hash__ = object.__hash__


BOND_OF_SYMBOL = {o.value: o for o in BondOrder}
# Bond order each bond contributes to its atoms' valence.
BOND_VALENCE = {o: _BOND_ORDER_VALUE[o.value] for o in BondOrder}
# Bond class for ranking, fingerprints and template matching: stereo
# direction is excluded, so UP and DOWN rank as SINGLE.
BOND_CLASS = {
    BondOrder.SINGLE: 1,
    BondOrder.UP: 1,
    BondOrder.DOWN: 1,
    BondOrder.DOUBLE: 2,
    BondOrder.TRIPLE: 3,
    BondOrder.AROMATIC: 4,
}

_FLIP = {
    BondOrder.UP: BondOrder.DOWN,
    BondOrder.DOWN: BondOrder.UP,
}


class MolGraph:
    """Undirected molecular graph with oriented directional bonds.

    Adjacency stores the bond order as seen from each endpoint, so an
    UP bond written a->b reads as DOWN from b; all other orders are
    symmetric.
    """

    __slots__ = ("atoms", "_adj")

    def __init__(self) -> None:
        self.atoms: list[Atom] = []
        self._adj: list[dict[int, BondOrder]] = []

    def add_atom(self, atom: Atom) -> int:
        self.atoms.append(atom)
        self._adj.append({})
        return len(self.atoms) - 1

    def add_bond(self, a: int, b: int, order: BondOrder) -> None:
        if a == b:
            raise GraphError("self bond")
        if b in self._adj[a]:
            raise GraphError(f"duplicate bond {a}-{b}")
        self._adj[a][b] = order
        self._adj[b][a] = _FLIP.get(order, order)

    def set_bond(self, a: int, b: int, order: BondOrder) -> None:
        if b in self._adj[a]:
            self._adj[a][b] = order
            self._adj[b][a] = _FLIP.get(order, order)
        else:
            self.add_bond(a, b, order)

    def remove_bond(self, a: int, b: int) -> None:
        if b not in self._adj[a]:
            raise GraphError(f"no bond {a}-{b}")
        del self._adj[a][b]
        del self._adj[b][a]

    def bond_order(self, a: int, b: int) -> BondOrder | None:
        """Order as seen from ``a``."""
        return self._adj[a].get(b)

    def neighbors(self, i: int) -> list[int]:
        return list(self._adj[i])

    def bonds(self) -> list[tuple[int, int, BondOrder]]:
        out = []
        for a, nbrs in enumerate(self._adj):
            for b, order in nbrs.items():
                if a < b:
                    out.append((a, b, order))
        return out

    def degree(self, i: int) -> int:
        return len(self._adj[i])

    def copy(self) -> "MolGraph":
        g = MolGraph()
        g.atoms = [copy.copy(a) for a in self.atoms]
        g._adj = [dict(nbrs) for nbrs in self._adj]
        return g

    def subgraph(self, indices: list[int]) -> "MolGraph":
        """Induced subgraph; atoms appear in the order given."""
        remap = {old: new for new, old in enumerate(indices)}
        g = MolGraph()
        for old in indices:
            g.add_atom(copy.copy(self.atoms[old]))
        for old in indices:
            for nbr, order in self._adj[old].items():
                if nbr in remap and old < nbr:
                    g.add_bond(remap[old], remap[nbr], order)
        return g

    def components(self) -> list[list[int]]:
        seen: set[int] = set()
        comps: list[list[int]] = []
        for start in range(len(self.atoms)):
            if start in seen:
                continue
            comp = [start]
            seen.add(start)
            queue = [start]
            while queue:
                u = queue.pop()
                for v in self._adj[u]:
                    if v not in seen:
                        seen.add(v)
                        comp.append(v)
                        queue.append(v)
            comps.append(sorted(comp))
        return comps


def parse_graph(tokens: TokenSequence) -> MolGraph:
    """Build a graph from validated molecule tokens.

    Bond orders come from :func:`smiles._assemble`, which also decides the
    ones left implicit.  Bare atoms whose bond order sum exceeds their
    largest valence raise :class:`ValenceError`.
    """
    atom_tokens, bonds, failures = _assemble(tokens)
    if failures:
        failures.sort(key=lambda f: (f.position, f.kind.value))
        raise InvalidStructure(tuple(failures))

    g = MolGraph()
    for index in atom_tokens:
        t = tokens[index]
        if t.atom is not None:
            g.add_atom(copy.copy(t.atom))  # a graph's atoms are its own
        elif t.kind is TokenKind.AROMATIC_ATOM:
            g.add_atom(Atom(element=t.text.upper(), aromatic=True))
        else:
            g.add_atom(Atom(element=t.text))

    for bond in bonds:
        g.add_bond(bond.a, bond.b, BOND_OF_SYMBOL[bond.symbol])

    check_valence(g)
    return g


def parse_string(text: str) -> MolGraph:
    return parse_graph(tokenize(text))


def strip_atom_maps(molecule: str) -> str:
    """``molecule`` as written, with its atom maps dropped.

    One parse: every bracket atom is then written as canonical emission
    writes it (:func:`_atom_text`), so a bracket that only the map kept
    loses its brackets; every other token is copied as written.  Raises
    ``SmilesError`` or :class:`GraphError` when ``molecule`` does not parse.
    """
    tokens = tokenize(molecule)
    g = parse_graph(tokens)
    pieces = []
    atom = 0
    for t in tokens:
        if t.kind is TokenKind.BRACKET_ATOM:
            pieces.append(_atom_text(g, atom))
        else:
            pieces.append(t.text)
        atom += t.is_atom()
    return "".join(pieces)


def _order_sum(g: MolGraph, i: int) -> int:
    total = 0
    for order in g._adj[i].values():
        total += BOND_VALENCE[order]
    return total


def _bare_fill(g: MolGraph, i: int) -> int | None:
    """The hydrogens atom ``i`` would carry written bare; None when no bare
    form exists."""
    atom = g.atoms[i]
    return bare_hydrogen_fill(atom.element, atom.aromatic, _order_sum(g, i))


def effective_hcount(g: MolGraph, i: int) -> int:
    """Hydrogen count: explicit, or valence fill for bare atoms."""
    atom = g.atoms[i]
    if atom.hcount is not None:
        return atom.hcount
    fill = _bare_fill(g, i)
    if fill is None:
        raise ValenceError(
            f"atom {i} ({atom.element}, bond order sum {_order_sum(g, i)}) "
            "exceeds its largest valence"
        )
    return fill


def check_valence(g: MolGraph) -> None:
    """Raise :class:`ValenceError` at the first bare atom whose bond order sum
    exceeds its largest valence."""
    for i, atom in enumerate(g.atoms):
        if atom.hcount is None:
            effective_hcount(g, i)


def _ring_atoms(g: MolGraph) -> list[bool]:
    """Atoms on at least one cycle: endpoints of non-bridge edges.

    One depth-first search with low links (Tarjan): the tree edge from
    ``p`` down to ``u`` is a bridge iff nothing below ``u`` links back to
    ``p`` or above it.
    """
    n = len(g.atoms)
    pre = [-1] * n
    low = [0] * n
    in_ring = [False] * n
    count = 0
    for start in range(n):
        if pre[start] >= 0:
            continue
        pre[start] = low[start] = count
        count += 1
        stack = [(start, -1, iter(g._adj[start]))]
        while stack:
            u, p, it = stack[-1]
            for v in it:
                if v == p:
                    continue
                if pre[v] < 0:
                    pre[v] = low[v] = count
                    count += 1
                    stack.append((v, u, iter(g._adj[v])))
                    break
                low[u] = min(low[u], pre[v])
            else:
                stack.pop()
                if p >= 0:
                    low[p] = min(low[p], low[u])
                    if low[u] <= pre[p]:
                        in_ring[u] = in_ring[p] = True
    return in_ring


def _dense_ranks(keys: list) -> list[int]:
    order = {k: r for r, k in enumerate(sorted(set(keys)))}
    return [order[k] for k in keys]


def _bond_keys(g: MolGraph) -> list[list[tuple[int, int]]]:
    """Each atom's bonds as integer (class offset, neighbour) pairs.

    The offset is ``BOND_CLASS * 2n``; every rank ``_refine`` sees is below
    ``2n``, so ``offset + rank`` sorts exactly as (class, rank) does.
    """
    stride = 2 * len(g.atoms)
    return [
        [(BOND_CLASS[order] * stride, j) for j, order in nbrs.items()]
        for nbrs in g._adj
    ]


def _refine(
    bonds: list[list[tuple[int, int]]],
    ranks: list[int],
    moved: tuple[int, ...] | None = None,
) -> list[int]:
    """Split ranks by sorted (bond class, neighbour rank) until stable.

    Rounds are synchronous: a round keys atoms by the labels it started
    from and orders each cell's pieces by key.  An atom's label is its
    cell's last position in rank order, so labels order atoms as ranks do
    and every split comes out as re-sorting all atoms would make it.  A
    round keys only the atoms next to a changed atom, plus one other atom
    of their cell for the rest, which still share a key.  Every piece of a
    split counts as changed but the largest (Hopcroft's rule; McKay &
    Piperno 2014): giving it a new label moves every key that reads it by
    one order-preserving map, which splits nothing.  The first round keys
    the neighbours of ``moved``, or every atom when it is None; the caller
    vouches that the other atoms of each cell share a key, as they do
    around an atom just individualized from an equitable partition.
    Returns dense ranks.
    """
    last = {rank: position for position, rank in enumerate(sorted(ranks))}
    label = [last[rank] for rank in ranks]
    cells: dict[int, set[int]] = {}
    for i, cell in enumerate(label):
        if cell in cells:
            cells[cell].add(i)
        else:
            cells[cell] = {i}
    changed = range(len(ranks)) if moved is None else moved
    while changed:
        # only atoms next to a changed atom can change key
        loud = {j for i in changed for _, j in bonds[i]}
        hit: dict[int, list[int]] = {}
        for j in loud:
            cell = label[j]
            if cell in hit:
                hit[cell].append(j)
            else:
                hit[cell] = [j]
        splits = []
        for cell, atoms in hit.items():
            members = cells[cell]
            if len(members) > 1:
                proxy = -1
                if len(atoms) < len(members):
                    # the cell's other atoms still share one key
                    proxy = next(i for i in members if i not in loud)
                    atoms.append(proxy)
                keyed = sorted(
                    [(tuple(sorted([offset + label[j] for offset, j in bonds[i]])), i)
                     for i in atoms]
                )
                if keyed[0][0] != keyed[-1][0]:
                    splits.append((cell, keyed, proxy))
        changed = []
        for cell, keyed, proxy in splits:
            pieces = [{i for _, i in piece} for _, piece in groupby(keyed, itemgetter(0))]
            if proxy >= 0:
                # the proxy's piece is the cell less the other pieces
                members = cells[cell]
                for p, piece in enumerate(pieces):
                    if proxy in piece:
                        whole = p
                    else:
                        members.difference_update(piece)
                pieces[whole] = members
            # every piece but the largest counts as changed
            largest = max(pieces, key=len)
            end = cell
            for piece in reversed(pieces):
                cells[end] = piece
                if end != cell:
                    for i in piece:
                        label[i] = end
                if piece is not largest:
                    changed += piece
                end -= len(piece)
    return _dense_ranks(label)


def _initial_ranks(g: MolGraph) -> list[int]:
    in_ring = _ring_atoms(g)
    keys = [
        (
            a.element,
            a.isotope or 0,
            g.degree(i),
            a.charge,
            effective_hcount(g, i),
            a.aromatic,
            in_ring[i],
        )
        for i, a in enumerate(g.atoms)
    ]
    return _dense_ranks(keys)


def _first_tied_class(ranks: list[int]) -> list[int] | None:
    """Atoms of the lowest rank shared by several atoms, in index order."""
    ordered = sorted(ranks)
    for r, following in zip(ordered, ordered[1:]):
        if r == following:
            return [i for i, rank in enumerate(ranks) if rank == r]
    return None


def _individualize(ranks: list[int], atom: int) -> list[int]:
    """Rank doubling: ``atom`` goes just ahead of the rest of its class."""
    doubled = [r * 2 for r in ranks]
    doubled[atom] -= 1
    return doubled


class _SearchNode:
    """One open search node: the children tried so far, and the orbits of
    the automorphisms that fix the node's individualized atoms, kept as a
    union-find over the automorphisms' cycles."""

    __slots__ = ("fixed", "parent", "seen", "tried")

    def __init__(self, fixed: list[int], n: int):
        self.fixed = fixed
        self.parent = list(range(n))
        self.seen = 0  # automorphisms already folded in
        self.tried: list[int] = []

    def _find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def covered(self, atom: int, automorphisms: list[dict[int, int]]) -> bool:
        """Whether ``atom`` lies in the orbit of a tried child."""
        for moves in automorphisms[self.seen:]:
            if moves.keys().isdisjoint(self.fixed):
                for i, j in moves.items():
                    a, b = self._find(i), self._find(j)
                    if a != b:
                        self.parent[a] = b
        self.seen = len(automorphisms)
        root = self._find(atom)
        return any(self._find(t) == root for t in self.tried)


_EMISSION_BUDGET = 20000


def _twin_swaps(g: MolGraph, ranks: list[int]) -> list[dict[int, int]]:
    """The swap of every pair of equal terminal atoms that share a
    neighbour, a bond order and a rank, as moves: atom -> image."""
    twins: dict[tuple, list[int]] = {}
    for i, nbrs in enumerate(g._adj):
        if len(nbrs) == 1:
            ((j, order),) = nbrs.items()
            twins.setdefault((j, order, ranks[i]), []).append(i)
    swaps = []
    for group in twins.values():
        for k, a in enumerate(group):
            for b in group[k + 1:]:
                if g.atoms[a] == g.atoms[b]:
                    swaps.append({a: b, b: a})
    return swaps


def _automorphism(g: MolGraph, sigma: list[int]) -> bool:
    """Whether ``sigma`` maps every atom to an equal one and every bond to a
    bond of the same order (as seen from each end)."""
    atoms, adj = g.atoms, g._adj
    for a, nbrs in enumerate(adj):
        b = sigma[a]
        if a != b and atoms[a] != atoms[b]:
            return False
        image = adj[b]
        for j, order in nbrs.items():
            if image.get(sigma[j]) is not order:
                return False
    return True


def _canonical_component(g: MolGraph) -> tuple[str, list[dict[int, int]]]:
    """The smallest leaf rendering of the tie-breaking search tree, and the
    automorphisms the search knew, each as its moves: atom -> image.

    A node's children individualize each atom of its first tied class;
    children in the orbit of a tried sibling are skipped (module
    docstring).  The automorphisms are the terminal twins' swaps and those
    that leaves repeating a rendering yield and that hold.  A leaf is
    first matched against the first leaf of the smallest rendering so far:
    when mapping the atom ranked r-th there to the atom ranked r-th here,
    for every r, is an automorphism, the leaf renders that string and the
    map is the one the emission orders would give, so it is not rendered.
    """
    n = len(g.atoms)
    bonds = _bond_keys(g)
    ranks = _initial_ranks(g)
    budget = _EMISSION_BUDGET
    best: str | None = None
    # rendering -> (ranks, emission order) of its first leaf
    first_leaf: dict[str, tuple[list[int], list[int]]] = {}
    automorphisms = _twin_swaps(g, ranks)
    path: list[int] = []  # the atom individualized at each open node
    nodes: list[_SearchNode] = []  # the open nodes, root first

    def leaf(ranks: list[int]) -> int:
        nonlocal budget, best
        budget -= 1
        if budget < 0:
            raise CanonicalizationError("tie-breaking budget exhausted")
        ranked = [0] * n  # the atom of each rank
        for i, r in enumerate(ranks):
            ranked[r] = i
        # one check a leaf, against the smallest rendering's first leaf:
        # checking every rendering's would take time quadratic in the leaves
        # of a graph whose leaves all render differently
        sigma = None if best is None else [ranked[r] for r in first_leaf[best][0]]
        if sigma is None or not _automorphism(g, sigma):
            order: list[int] = []
            rendered = _render(g, ranked[0], ranks, order)
            if best is None or rendered < best:
                best = rendered
            earlier_order = first_leaf.setdefault(rendered, (ranks, order))[1]
            if earlier_order is order:
                return len(nodes)
            sigma = list(range(n))
            for a, b in zip(earlier_order, order):
                sigma[a] = b
            if not _automorphism(g, sigma):
                return len(nodes)  # equal texts, unequal atoms: [CH3] and C
        # an automorphism is kept as its moves: the atoms it does not fix
        automorphisms.append({a: b for a, b in enumerate(sigma) if a != b})
        # resume at the shallowest node whose current child just joined
        # the orbit of a tried sibling
        for depth, node in enumerate(nodes):
            if node.covered(path[depth], automorphisms):
                return depth
        return len(nodes)

    def search(ranks: list[int]) -> int:
        """Explore one node; returns the depth of the open node to resume at."""
        tied = _first_tied_class(ranks)
        if tied is None:
            return leaf(ranks)
        depth = len(nodes)
        node = _SearchNode(path[:depth], n)
        nodes.append(node)
        try:
            for atom in tied:
                if node.covered(atom, automorphisms):
                    continue
                path.append(atom)
                resume = search(_refine(bonds, _individualize(ranks, atom), (atom,)))
                path.pop()
                node.tried.append(atom)
                if resume < depth:
                    return resume
        finally:
            nodes.pop()
        return depth

    try:
        search(_refine(bonds, ranks))
    finally:
        search = None  # it calls itself: drop the cycle for reference counting
    assert best is not None
    return best, automorphisms


class CanonicalForm(NamedTuple):
    """A graph, its canonical SMILES and automorphisms of it, each as its
    moves (atom -> image, in the graph's own atom indices).

    The automorphisms are those the search knew: the terminal twins' swaps
    and those its leaves found.  Each maps every atom to an equal one and
    every bond to one of the same order.  They need not generate the whole
    group, and none swaps two components.  ``graph`` is not a copy.
    """

    graph: MolGraph
    smiles: str
    automorphisms: tuple[dict[int, int], ...]


def canonical_form(g: MolGraph) -> CanonicalForm:
    """:func:`canonical_smiles` with ``g`` and the automorphisms found."""
    comps = g.components()
    if len(comps) == 1:
        smiles, automorphisms = _canonical_component(g)
        return CanonicalForm(g, smiles, tuple(automorphisms))
    parts = []
    automorphisms = []
    for comp in comps:
        smiles, found = _canonical_component(g.subgraph(comp))
        parts.append(smiles)
        automorphisms += [{comp[a]: comp[b] for a, b in moves.items()} for moves in found]
    return CanonicalForm(g, ".".join(sorted(parts)), tuple(automorphisms))


def canonical_smiles(g: MolGraph) -> str:
    """One deterministic rendering per molecule, input-order independent.

    Components are canonicalized separately and joined with dots in
    lexicographic order.
    """
    return canonical_form(g).smiles


# Distinct strings canonical_from_string remembers per process; a few MB at most.
_CANON_CACHE_SIZE = 1 << 14


@functools.lru_cache(maxsize=_CANON_CACHE_SIZE)
def canonical_from_string(text: str) -> str:
    """``canonical_smiles(parse_string(text))``, memoized on ``text``.

    Errors are raised again on every call; only results are remembered.
    """
    return canonical_smiles(parse_string(text))


def random_smiles(g: MolGraph, seed: int) -> str:
    """A random but valid rendering; deterministic for a given seed."""
    rng = random.Random(seed)
    comps = g.components()
    rng.shuffle(comps)
    parts = []
    for comp in comps:
        shuffle_pos = list(range(len(comp)))
        rng.shuffle(shuffle_pos)
        root = rng.randrange(len(comp))
        parts.append(_render(g.subgraph(comp), root, shuffle_pos))
    return ".".join(parts)


# Symbols an atom may be written with and no brackets.
_BARE_SYMBOLS = frozenset(ORGANIC_SUBSET + AROMATIC_SUBSET)


def _atom_text(g: MolGraph, i: int) -> str:
    """Atom ``i`` bare when that form implies all it carries, else bracketed
    (no atom map: the graph keeps none)."""
    atom = g.atoms[i]
    symbol = atom.element.lower() if atom.aromatic else atom.element
    if (
        symbol in _BARE_SYMBOLS
        and atom.charge == 0
        and atom.isotope is None
        and atom.chirality is None
    ):
        if atom.hcount is None or _bare_fill(g, i) == atom.hcount:
            return symbol
    return format_bracket(atom, effective_hcount(g, i))


def _bond_text(g: MolGraph, u: int, v: int) -> str:
    """Bond symbol when traversing u -> v; '' when implied."""
    order = g._adj[u][v]
    both_aromatic = g.atoms[u].aromatic and g.atoms[v].aromatic
    if order is BondOrder.SINGLE:
        return "-" if both_aromatic else ""
    if order is BondOrder.AROMATIC:
        return "" if both_aromatic else ":"
    return order.value


def _render(g: MolGraph, root: int, rank, order: list[int] | None = None) -> str:
    """Emit one component by DFS, visiting neighbors in ``rank`` order.

    Both the traversal and the writing use explicit stacks, so a long
    chain needs no Python recursion.

    ``order``, when given, receives the atoms in emission order.
    """
    adj = g._adj
    n = len(g.atoms)
    parent = [-1] * n
    preindex = [-1] * n
    children: list[list[int]] = [[] for _ in range(n)]
    # each ring bond as (partner's preindex, partner), at both ends
    ring_at: list[list[tuple[int, int]]] = [[] for _ in range(n)]

    preindex[root] = 0
    count = 1
    stack = [(root, iter(sorted(adj[root], key=rank.__getitem__)))]
    while stack:
        u, it = stack[-1]
        for v in it:
            if preindex[v] < 0:
                parent[v] = u
                preindex[v] = count
                count += 1
                children[u].append(v)
                stack.append((v, iter(sorted(adj[v], key=rank.__getitem__))))
                break
            # a bond back to an ancestor closes a ring; the ancestor's own
            # look at this bond comes later and finds u after it
            if preindex[v] < preindex[u] and v != parent[u]:
                ring_at[v].append((preindex[u], u))
                ring_at[u].append((preindex[v], v))
        else:
            stack.pop()
    for lst in ring_at:
        lst.sort()

    marker_of: dict[tuple[int, int], int] = {}  # (opening atom, closing atom) -> marker
    free: list[int] = []
    next_marker = 1

    def marker_text(m: int) -> str:
        if m < 10:
            return str(m)
        if m < 100:
            return f"%{m:02d}"
        raise GraphError("ring marker numbers exhausted")

    pieces: list[str] = []
    # (text written before the atom, atom); atom -1 writes the text alone
    todo = [("", root)]
    while todo:
        text, u = todo.pop()
        pieces.append(text)
        if u < 0:
            continue
        if order is not None:
            order.append(u)
        pieces.append(_atom_text(g, u))
        for p, v in ring_at[u]:
            if p < preindex[u]:  # v was written first and opened this ring
                m = marker_of.pop((v, u))
                pieces.append(marker_text(m))
                free.append(m)
            else:
                m = min(free) if free else next_marker
                if free:
                    free.remove(m)
                else:
                    next_marker += 1
                marker_of[(u, v)] = m
                pieces.append(_bond_text(g, u, v) + marker_text(m))
        kids = children[u]
        if kids:
            # the last child continues the chain; the others are branches,
            # pushed in reverse so the first is written first
            todo.append((_bond_text(g, u, kids[-1]), kids[-1]))
            for v in reversed(kids[:-1]):
                todo.append((")", -1))
                todo.append(("(" + _bond_text(g, u, v), v))
    return "".join(pieces)


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def _fnv1a(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


@dataclass(frozen=True)
class Fingerprint:
    bits: int
    nbits: int
    radius: int

    def on_bits(self) -> list[int]:
        return [i for i in range(self.nbits) if (self.bits >> i) & 1]


def morgan_fingerprint(g: MolGraph, radius: int = 2, nbits: int = 2048) -> Fingerprint:
    """Hashed circular fingerprint over atom environments.

    Radius-0 invariants cover element, isotope, degree, charge, hydrogen
    count and aromaticity; each iteration folds in sorted
    (bond class, neighbor invariant) pairs.  Every environment hash sets
    one bit (FNV-1a 64 modulo ``nbits``).
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if nbits <= 0 or nbits & (nbits - 1):
        raise ValueError("nbits must be a positive power of two")
    inv = [
        _fnv1a(
            "|".join(
                str(x)
                for x in (
                    a.element,
                    a.isotope or 0,
                    g.degree(i),
                    a.charge,
                    effective_hcount(g, i),
                    int(a.aromatic),
                )
            ).encode()
        )
        for i, a in enumerate(g.atoms)
    ]
    bits = 0
    for r in range(radius + 1):
        for h in inv:
            bits |= 1 << (h % nbits)
        if r == radius:
            break
        nxt = []
        for i in range(len(g.atoms)):
            env = sorted(
                (BOND_CLASS[order], inv[j]) for j, order in g._adj[i].items()
            )
            payload = f"{r + 1}|{inv[i]}|" + ",".join(f"{c}:{v}" for c, v in env)
            nxt.append(_fnv1a(payload.encode()))
        inv = nxt
    return Fingerprint(bits=bits, nbits=nbits, radius=radius)


def tanimoto(a: Fingerprint, b: Fingerprint) -> float:
    """Bit-set similarity; two all-zero fingerprints count as identical."""
    if a.nbits != b.nbits:
        raise WidthMismatch(f"fingerprint widths differ: {a.nbits} vs {b.nbits}")
    union = (a.bits | b.bits).bit_count()
    if union == 0:
        return 1.0
    return (a.bits & b.bits).bit_count() / union
