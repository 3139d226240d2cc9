"""Reaction templates: pattern matching, application, dataset generation.

A template is ``name | substrate_pattern | coreactants | reagents |
product_pattern``.  Patterns are mapped-atom pattern SMILES: bare atoms
constrain element and aromaticity; bracket atoms add hydrogen count,
charge, and ``;D`` degree bounds, e.g. ``[OH1;D1:3]``.  Map numbers tie
substrate atoms to product atoms; unmapped product atoms are introduced
by the template.  A pattern is lexed by the molecule lexer with its own
bracket reader, and its bonds come from the molecule assembler, so an
implicit bond follows the molecule rule; dots, ``>`` and stereo bonds are
refused.  A parsed pattern is a :class:`MolGraph` whose atoms are
:class:`PatternAtom` constraints.

Application edits a copy of the substrate per the product pattern and
keeps the component(s) containing product atoms.  When different
embeddings give different products, the one whose newly substituted
carbon has the highest heavy-atom degree wins (Markovnikov), with
remaining ties broken by the lexicographically smallest canonical
product.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass

from .molgraph import (
    BOND_CLASS,
    BOND_OF_SYMBOL,
    Atom,
    BondOrder,
    GraphError,
    MolGraph,
    ValenceError,
    canonical_smiles,
    effective_hcount,
    parse_string,
)
from .pipeline import ReactionRecord
from .smiles import Token, TokenizeError, TokenKind, _assemble, _lex, _parse_charge

__all__ = [
    "PatternAtom",
    "PatternGraph",
    "PatternSyntaxError",
    "ReactionTemplate",
    "SubstrateFilter",
    "TemplateError",
    "TemplateSyntaxError",
    "UnboundMapNumber",
    "apply_template",
    "default_substrate_filter",
    "enumerate_substrates",
    "generate_dataset",
    "load_templates",
    "match_pattern",
    "parse_pattern",
]

logger = logging.getLogger(__name__)


class TemplateError(ValueError):
    """Base class for template loading and application errors."""


class PatternSyntaxError(TemplateError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class TemplateSyntaxError(TemplateError):
    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class UnboundMapNumber(TemplateError):
    def __init__(self, name: str, map_number: int):
        super().__init__(
            f"template {name!r}: product map :{map_number} does not appear "
            "in the substrate pattern"
        )
        self.template_name = name
        self.map_number = map_number


@dataclass(frozen=True)
class PatternAtom:
    """Constraints one pattern position places on a molecule atom.

    ``element`` None matches any element; ``aromatic`` None matches both;
    ``hcount``/``charge`` None leave the property unconstrained (and, in a
    product pattern, unassigned).  Degree bounds cover heavy neighbors.
    """

    element: str | None
    aromatic: bool | None
    hcount: int | None = None
    charge: int | None = None
    min_degree: int = 0
    max_degree: int | None = None
    map_number: int | None = None


class PatternGraph(MolGraph):
    """A :class:`MolGraph` whose atoms are :class:`PatternAtom` constraints."""

    __slots__ = ()

    def maps(self) -> dict[int, int]:
        """map number -> pattern atom index"""
        return {
            a.map_number: i
            for i, a in enumerate(self.atoms)
            if a.map_number is not None
        }


_PATTERN_BRACKET_RE = re.compile(
    r"\A\[(?P<element>\*|[A-Z][a-z]?|[bcnops])?"
    r"(?P<hcount>H\d?)?"
    r"(?P<charge>[+-]\d|\+{1,2}|-{1,2})?"
    r"(?:;D(?P<dmin>\d+)(?:-(?P<dmax>\d+))?)?"
    r"(?::(?P<map>\d+))?\]\Z"
)

# Molecule tokens a pattern may not hold: components, reaction separators
# and stereo bonds.
_REJECTED_TOKENS = frozenset({".", ">", "/", "\\"})


def _parse_pattern_bracket(raw: str, position: int) -> PatternAtom:
    m = _PATTERN_BRACKET_RE.match(raw)
    if m is None:
        raise PatternSyntaxError(f"malformed pattern atom {raw!r}", position)
    element = m.group("element")
    aromatic: bool | None
    if element is None or element == "*":
        element, aromatic = None, None
    elif element.islower():
        element, aromatic = element.capitalize(), True
    else:
        aromatic = False
    hcount = m.group("hcount")
    dmin = m.group("dmin")
    dmax = m.group("dmax")
    min_degree = int(dmin) if dmin is not None else 0
    max_degree = (
        int(dmax) if dmax is not None else (int(dmin) if dmin is not None else None)
    )
    map_group = m.group("map")
    charge = m.group("charge")
    return PatternAtom(
        element=element,
        aromatic=aromatic,
        hcount=None if hcount is None else int(hcount[1:] or 1),
        charge=None if charge is None else _parse_charge(charge),
        min_degree=min_degree,
        max_degree=max_degree,
        map_number=int(map_group) if map_group is not None else None,
    )


def parse_pattern(text: str) -> PatternGraph:
    """Parse a mapped-atom pattern SMILES string.

    Patterns go through the molecule lexer with their own bracket reader.
    A lexing error, a rejected token or a structure failure is reported at
    its character position.
    """
    tokens: list[Token] = []
    try:
        for t in _lex(text, _parse_pattern_bracket):
            if t.text in _REJECTED_TOKENS:
                position = sum(len(u.text) for u in tokens)
                raise PatternSyntaxError(f"unrecognized pattern text {t.text!r}", position)
            tokens.append(t)
    except TokenizeError as exc:
        raise PatternSyntaxError(
            f"unrecognized pattern text {text[exc.position]!r}", exc.position
        ) from exc
    # _assemble's first failure, the first one found: sorting them, as
    # parse_graph does, would move C1CC)C's report from ')' to '1'
    atom_tokens, bonds, failures = _assemble(tokens)
    if not atom_tokens:
        raise PatternSyntaxError("pattern has no atoms", 0)
    if failures:
        first = failures[0]
        raise PatternSyntaxError(
            f"bad pattern structure ({first.kind.value})", first.position
        )

    g = PatternGraph()
    for index in atom_tokens:
        t = tokens[index]
        aromatic = t.kind is TokenKind.AROMATIC_ATOM
        g.add_atom(t.atom or PatternAtom(t.text.capitalize(), aromatic))
    for bond in bonds:
        g.add_bond(bond.a, bond.b, BOND_OF_SYMBOL[bond.symbol])
    return g


@dataclass(frozen=True)
class ReactionTemplate:
    name: str
    substrate_pattern: PatternGraph
    coreactants: tuple[str, ...]
    reagents: tuple[str, ...]
    product_pattern: PatternGraph


def load_templates(lines) -> list[ReactionTemplate]:
    """Load templates from an iterable of DSL lines (or an open file).

    Blank lines and ``#`` comments are skipped.  Coreactant and reagent
    fields hold ``;``-separated SMILES and may be empty.
    """
    templates: list[ReactionTemplate] = []
    names: set[str] = set()
    for line_number, raw in enumerate(lines, start=1):
        line = raw.strip()
        # '#' is a triple bond inside patterns, so only whole-line comments
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split("|")]
        if len(fields) != 5:
            raise TemplateSyntaxError(
                f"expected 5 '|' separated fields, found {len(fields)}", line_number
            )
        name, substrate_src, coreactants_src, reagents_src, product_src = fields
        if not name:
            raise TemplateSyntaxError("empty template name", line_number)
        if name in names:
            raise TemplateSyntaxError(f"duplicate template name {name!r}", line_number)
        names.add(name)
        try:
            substrate_pattern = parse_pattern(substrate_src)
            product_pattern = parse_pattern(product_src)
        except PatternSyntaxError as exc:
            raise TemplateSyntaxError(str(exc), line_number) from exc
        if len(substrate_pattern.components()) != 1:
            raise TemplateSyntaxError("substrate pattern is not connected", line_number)
        if len(product_pattern.components()) != 1:
            raise TemplateSyntaxError("product pattern is not connected", line_number)

        sub_maps = substrate_pattern.maps()
        if len(sub_maps) != sum(
            1 for a in substrate_pattern.atoms if a.map_number is not None
        ):
            raise TemplateSyntaxError("duplicate map number in substrate", line_number)
        prod_map_list = [
            a.map_number for a in product_pattern.atoms if a.map_number is not None
        ]
        if len(prod_map_list) != len(set(prod_map_list)):
            raise TemplateSyntaxError("duplicate map number in product", line_number)
        for map_number in prod_map_list:
            if map_number not in sub_maps:
                raise UnboundMapNumber(name, map_number)
        for i, atom in enumerate(product_pattern.atoms):
            if atom.map_number is None and atom.element is None:
                raise TemplateSyntaxError(
                    "introduced product atoms must name an element", line_number
                )

        coreactants = tuple(s for s in (p.strip() for p in coreactants_src.split(";")) if s)
        reagents = tuple(s for s in (p.strip() for p in reagents_src.split(";")) if s)
        for smiles in coreactants + reagents:
            try:
                parse_string(smiles)
            except (ValueError, GraphError) as exc:
                raise TemplateSyntaxError(
                    f"bad coreactant/reagent SMILES {smiles!r}: {exc}", line_number
                ) from exc
        templates.append(
            ReactionTemplate(
                name=name,
                substrate_pattern=substrate_pattern,
                coreactants=coreactants,
                reagents=reagents,
                product_pattern=product_pattern,
            )
        )
    return templates


def load_templates_file(path) -> list[ReactionTemplate]:
    with open(path, encoding="utf-8") as handle:
        return load_templates(handle)


def _heavy_degree(g: MolGraph, i: int) -> int:
    return sum(1 for j in g.neighbors(i) if g.atoms[j].element != "H")


def _orders_compatible(pattern_order: BondOrder, graph_order: BondOrder) -> bool:
    return BOND_CLASS[pattern_order] == BOND_CLASS[graph_order]


def _atom_compatible(g: MolGraph, gi: int, pa: PatternAtom) -> bool:
    atom = g.atoms[gi]
    if pa.element is not None and atom.element != pa.element:
        return False
    if pa.aromatic is not None and atom.aromatic != pa.aromatic:
        return False
    if pa.charge is not None and atom.charge != pa.charge:
        return False
    if pa.hcount is not None and effective_hcount(g, gi) != pa.hcount:
        return False
    degree = _heavy_degree(g, gi)
    if degree < pa.min_degree:
        return False
    if pa.max_degree is not None and degree > pa.max_degree:
        return False
    return True


def _embeddings(pattern: PatternGraph, g: MolGraph):
    """Yield every injective assignment {pattern index -> atom index}.

    Molecule bonds not mentioned by the pattern are allowed (subgraph
    monomorphism, as in substructure search).
    """
    n = len(pattern.atoms)
    if n == 0:
        return

    # search order: breadth-first from atom 0 so each later atom has an
    # already-placed neighbor to anchor on (patterns are connected)
    order = [0]
    seen = {0}
    queue = [0]
    while queue:
        u = queue.pop(0)
        for v in pattern.neighbors(u):
            if v not in seen:
                seen.add(v)
                order.append(v)
                queue.append(v)

    assignment: dict[int, int] = {}
    used: set[int] = set()

    def extend(k: int):
        if k == n:
            yield dict(assignment)
            return
        p = order[k]
        anchors = [
            (assignment[q], pattern._adj[p][q])
            for q in pattern.neighbors(p)
            if q in assignment
        ]
        candidates = g.neighbors(anchors[0][0]) if anchors else range(len(g.atoms))
        for gi in candidates:
            if gi in used or not _atom_compatible(g, gi, pattern.atoms[p]):
                continue
            ok = all(
                (graph_order := g.bond_order(anchor, gi)) is not None
                and _orders_compatible(pattern_order, graph_order)
                for anchor, pattern_order in anchors
            )
            if not ok:
                continue
            assignment[p] = gi
            used.add(gi)
            yield from extend(k + 1)
            del assignment[p]
            used.discard(gi)

    yield from extend(0)


def match_pattern(pattern: PatternGraph, g: MolGraph) -> list[dict[int, int]]:
    """All injective embeddings, projected to map-number assignments.

    Results are deduplicated and sorted lexicographically by mapped atom
    indices; a pattern without maps yields ``[{}]`` when it matches.
    """
    projections: set[tuple[tuple[int, int], ...]] = set()
    for assignment in _embeddings(pattern, g):
        projections.add(
            tuple(
                sorted(
                    (a.map_number, assignment[i])
                    for i, a in enumerate(pattern.atoms)
                    if a.map_number is not None
                )
            )
        )
    return [dict(p) for p in sorted(projections)]


def _edit_substrate(
    substrate: MolGraph, template: ReactionTemplate, embedding: dict[int, int]
) -> tuple[MolGraph, list[int], list[int]]:
    """Apply the product pattern; returns (graph, kept atoms, gained-new-neighbor atoms)."""
    work = substrate.copy()
    sub_pattern = template.substrate_pattern
    prod_pattern = template.product_pattern
    sub_maps = sub_pattern.maps()
    prod_maps = prod_pattern.maps()

    # substrate-pattern bonds between mapped atoms that do not survive
    for pi, pj, _ in sub_pattern.bonds():
        mi = sub_pattern.atoms[pi].map_number
        mj = sub_pattern.atoms[pj].map_number
        if mi is None or mj is None:
            continue  # context bonds are never edited
        survives = (
            mi in prod_maps
            and mj in prod_maps
            and prod_pattern._adj[prod_maps[mi]].get(prod_maps[mj]) is not None
        )
        if not survives:
            a, b = embedding[mi], embedding[mj]
            if work.bond_order(a, b) is not None:
                work.remove_bond(a, b)

    # realize product atoms: carried (mapped) or introduced
    atom_of_prod_index: dict[int, int] = {}
    introduced: list[int] = []
    for i, pa in enumerate(prod_pattern.atoms):
        if pa.map_number is not None:
            atom_of_prod_index[i] = embedding[pa.map_number]
        else:
            idx = work.add_atom(
                Atom(
                    element=pa.element or "*",
                    aromatic=bool(pa.aromatic),
                    charge=pa.charge or 0,
                    hcount=pa.hcount,
                )
            )
            atom_of_prod_index[i] = idx
            introduced.append(idx)

    # product-pattern bonds: create or retype
    for pi, pj, order in prod_pattern.bonds():
        a, b = atom_of_prod_index[pi], atom_of_prod_index[pj]
        work.set_bond(a, b, order)

    # carried atoms: apply charge/hydrogen assignments; edited atoms with
    # no explicit assignment fall back to valence fill (neutral atoms only)
    for i, pa in enumerate(prod_pattern.atoms):
        if pa.map_number is None:
            continue
        atom = work.atoms[atom_of_prod_index[i]]
        if pa.charge is not None:
            atom.charge = pa.charge
        if pa.hcount is not None:
            atom.hcount = pa.hcount
        elif atom.charge == 0:
            atom.hcount = None

    # surface chemically impossible edits
    for i in range(len(work.atoms)):
        if work.atoms[i].hcount is None:
            effective_hcount(work, i)

    kept_seeds = set(atom_of_prod_index.values())
    kept: list[int] = []
    for comp in work.components():
        if kept_seeds & set(comp):
            kept.extend(comp)
    kept.sort()

    gained = sorted(
        {
            nbr
            for idx in introduced
            for nbr in work.neighbors(idx)
            if nbr not in introduced
        }
    )
    return work, kept, gained


def apply_template(
    template: ReactionTemplate, substrate: MolGraph
) -> list[ReactionRecord]:
    """Apply a template to one substrate molecule.

    Returns an empty list when the pattern does not match, otherwise a
    single record for the selected product.
    """
    embeddings = match_pattern(template.substrate_pattern, substrate)
    candidates: dict[tuple[str, ...], int] = {}
    for embedding in embeddings:
        work, kept, gained = _edit_substrate(substrate, template, embedding)
        product_graph = work.subgraph(kept)
        rendered = canonical_smiles(product_graph)
        products = tuple(rendered.split(".")) if rendered else ()
        if not products:
            continue
        score = max((_heavy_degree(work, i) for i in gained), default=-1)
        previous = candidates.get(products)
        if previous is None or score > previous:
            candidates[products] = score
    if not candidates:
        return []

    best_score = max(candidates.values())
    best_products = min(
        products for products, score in candidates.items() if score == best_score
    )

    reactants = sorted(
        part
        for g in [substrate, *map(parse_string, template.coreactants)]
        for part in _canonical_parts_graph(g)
    )
    reagents = sorted(
        part
        for g in map(parse_string, template.reagents)
        for part in _canonical_parts_graph(g)
    )
    return [
        ReactionRecord(
            reactants=tuple(reactants),
            reagents=tuple(reagents),
            products=best_products,
        )
    ]


def _canonical_parts_graph(g: MolGraph) -> list[str]:
    rendered = canonical_smiles(g)
    return rendered.split(".") if rendered else []


# ---------------------------------------------------------------------------
# substrate filtering


@dataclass(frozen=True)
class SubstrateFilter:
    """Eligibility rules for dataset substrates."""

    min_atoms: int
    max_atoms: int
    max_functional_groups: int
    forbidden_motifs: tuple[PatternGraph, ...]
    functional_groups: tuple[tuple[str, PatternGraph], ...]


# Functional groups are claimed in priority order so that e.g. a carboxyl
# counts once rather than as carbonyl plus hydroxyl.
_FUNCTIONAL_GROUP_SOURCES: tuple[tuple[str, str], ...] = (
    ("carboxyl", "[C](=[O;D1])[OH1;D1]"),
    ("ester", "[C](=[O;D1])[O;D2]"),
    ("acid_halide", "[C](=[O;D1])[Cl;D1]"),
    ("amide", "[C](=[O;D1])[N]"),
    ("nitrile", "[C]#[N;D1]"),
    ("carbonyl", "[C]=[O;D1]"),
    ("hydroxyl", "[OH1;D1]"),
    ("alkyne", "[C]#[C]"),
    ("alkene", "[C]=[C]"),
    ("fluoro", "[F;D1]"),
    ("chloro", "[Cl;D1]"),
    ("bromo", "[Br;D1]"),
    ("iodo", "[I;D1]"),
    ("amine", "[N]"),
    ("ether", "[O;D2]"),
)

_NEOPENTYL_SOURCE = "[C;D4]([CH3;D1])([CH3;D1])([CH3;D1])[CH2;D2]"


def default_substrate_filter(
    min_atoms: int = 1, max_atoms: int = 10, max_functional_groups: int = 1
) -> SubstrateFilter:
    return SubstrateFilter(
        min_atoms=min_atoms,
        max_atoms=max_atoms,
        max_functional_groups=max_functional_groups,
        forbidden_motifs=(parse_pattern(_NEOPENTYL_SOURCE),),
        functional_groups=tuple(
            (name, parse_pattern(src)) for name, src in _FUNCTIONAL_GROUP_SOURCES
        ),
    )


def _match_atom_sets(pattern: PatternGraph, g: MolGraph) -> list[frozenset[int]]:
    """Distinct atom sets covered by embeddings of ``pattern`` in ``g``."""
    results = {frozenset(a.values()) for a in _embeddings(pattern, g)}
    return sorted(results, key=sorted)


def count_functional_groups(g: MolGraph, f: SubstrateFilter) -> int:
    """Count functional groups, claiming atoms in priority order."""
    claimed: set[int] = set()
    count = 0
    for _, pattern in f.functional_groups:
        for atom_set in _match_atom_sets(pattern, g):
            if atom_set & claimed:
                continue
            claimed |= atom_set
            count += 1
    return count


_HALIDE_SWAPS = ("Cl", "Br", "I")


def enumerate_substrates(
    raw: list[str], f: SubstrateFilter
) -> tuple[list[MolGraph], list[tuple[int, str, str]]]:
    """Parse, filter, and halogen-expand substrate SMILES.

    Fluorine-containing substrates additionally yield Cl/Br/I variants.
    Returns (accepted graphs, skipped (line number, text, reason) rows);
    invalid lines are skipped, never fatal.
    """
    accepted: list[MolGraph] = []
    skipped: list[tuple[int, str, str]] = []
    seen: set[str] = set()
    for line_number, line in enumerate(raw, start=1):
        text = line.strip()
        # '#' is a triple bond in SMILES, so only whole-line comments
        if not text or text.startswith("#"):
            continue
        try:
            g = parse_string(text)
        except (ValueError, GraphError) as exc:
            skipped.append((line_number, text, f"parse error: {exc}"))
            continue
        variants = [g]
        if any(a.element == "F" for a in g.atoms):
            for element in _HALIDE_SWAPS:
                variant = g.copy()
                for atom in variant.atoms:
                    if atom.element == "F":
                        atom.element = element
                variants.append(variant)
        for variant in variants:
            heavy = sum(1 for a in variant.atoms if a.element != "H")
            if heavy < f.min_atoms or heavy > f.max_atoms:
                skipped.append(
                    (line_number, canonical_smiles(variant), "atom count out of range")
                )
                continue
            groups = count_functional_groups(variant, f)
            if groups > f.max_functional_groups:
                skipped.append(
                    (
                        line_number,
                        canonical_smiles(variant),
                        f"{groups} functional groups",
                    )
                )
                continue
            if any(
                _match_atom_sets(motif, variant) for motif in f.forbidden_motifs
            ):
                skipped.append(
                    (line_number, canonical_smiles(variant), "forbidden motif")
                )
                continue
            key = canonical_smiles(variant)
            if key in seen:
                continue
            seen.add(key)
            accepted.append(variant)
    return accepted, skipped


def generate_dataset(
    templates: list[ReactionTemplate],
    substrates: list[str],
    f: SubstrateFilter | None = None,
) -> tuple[list[ReactionRecord], list[tuple[str, str, str]]]:
    """Cross every template with every eligible substrate.

    Returns records sorted by reaction string with duplicates removed,
    plus (template, substrate, error) rows for failed applications.
    """
    if f is None:
        f = default_substrate_filter()
    graphs, skipped = enumerate_substrates(substrates, f)
    for line_number, text, reason in skipped:
        logger.info("substrate skipped (line %d, %s): %s", line_number, text, reason)

    records: dict[str, ReactionRecord] = {}
    failures: list[tuple[str, str, str]] = []
    for template in templates:
        for g in graphs:
            try:
                produced = apply_template(template, g)
            except (GraphError, ValenceError) as exc:
                failures.append((template.name, canonical_smiles(g), str(exc)))
                continue
            for record in produced:
                records.setdefault(record.smiles(), record)
    ordered = [records[key] for key in sorted(records)]
    return ordered, failures
