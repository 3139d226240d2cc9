"""Graph construction, canonicalization and fingerprint tests."""

from pathlib import Path

import pytest

import rxnseq
from rxnseq import molgraph
from rxnseq.molgraph import (
    Atom,
    BondOrder,
    InvalidStructure,
    MolGraph,
    ValenceError,
    WidthMismatch,
    canonical_from_string,
    canonical_smiles,
    effective_hcount,
    morgan_fingerprint,
    parse_string,
    random_smiles,
    strip_atom_maps,
    tanimoto,
)
from rxnseq.smiles import tokenize
from rxnseq.molgraph import parse_graph


def test_parse_simple_chain():
    g = parse_string("CCO")
    assert len(g.atoms) == 3
    assert [a.element for a in g.atoms] == ["C", "C", "O"]
    assert g.bond_order(0, 1) is BondOrder.SINGLE
    assert g.bond_order(1, 2) is BondOrder.SINGLE
    assert [effective_hcount(g, i) for i in range(3)] == [3, 2, 1]


def test_parse_ring_and_aromatic():
    g = parse_string("c1ccccc1")
    assert all(a.aromatic for a in g.atoms)
    assert g.bond_order(0, 5) is BondOrder.AROMATIC
    assert [effective_hcount(g, i) for i in range(6)] == [1] * 6


def test_parse_ring_bond_order_either_side():
    for text in ("C=1CCCCC=1", "C1CCCCC=1", "C=1CCCCC1"):
        g = parse_string(text)
        assert g.bond_order(0, 5) is BondOrder.DOUBLE


def test_parse_directional_bonds_oriented():
    g = parse_string("C/C=C/C")
    assert g.bond_order(0, 1) is BondOrder.UP
    assert g.bond_order(1, 0) is BondOrder.DOWN


def test_parse_rejects_invalid_structure():
    with pytest.raises(InvalidStructure):
        parse_graph(tokenize("C1CC"))


def test_parse_valence_error():
    with pytest.raises(ValenceError):
        parse_string("C(C)(C)(C)(C)C")
    # bracket atoms may be hypervalent
    parse_string("[C](C)(C)(C)(C)C")


def test_hypervalent_bare_sulfur_and_nitrogen():
    g = parse_string("CS(=O)(=O)C")
    assert effective_hcount(g, 1) == 0
    g = parse_string("CN(C)C")
    assert effective_hcount(g, 1) == 0


def test_canonical_equal_renderings():
    assert canonical_from_string("OCC") == canonical_from_string("CCO")
    assert canonical_from_string("C(O)C") == canonical_from_string("CCO")
    assert canonical_from_string("c1ccccc1") == canonical_from_string("c1ccccc1")


def test_canonical_distinguishes_constitution():
    assert canonical_from_string("CCO") != canonical_from_string("COC")
    assert canonical_from_string("CC=O") != canonical_from_string("C=CO")


def test_canonical_idempotent():
    for text in ("CCO", "CC(C)C(=O)O", "c1ccc2ccccc2c1", "C1CC1.Cl", "[NH4+].[Cl-]"):
        once = canonical_from_string(text)
        assert canonical_from_string(once) == once


def test_canonical_multi_component_sorted():
    joined = canonical_from_string("Cl.CCO")
    assert joined == canonical_from_string("CCO.Cl")
    assert joined.count(".") == 1


# Bracket atoms through parse and emission: isotopes, chirality, charges,
# aromatic brackets, the wildcard, and brackets that collapse to bare atoms.
BRACKET_CANONICAL = [
    ("[13CH3]C", "C[13CH3]"),
    ("C[C@@H](O)CC", "CC[C@@H](C)O"),
    ("[NH4+]", "[NH4+]"),
    ("[Fe+2]", "[Fe+2]"),
    ("[O-2]", "[O-2]"),
    ("c1cc[nH]c1", "c1cc[nH]c1"),
    ("c1cc[se]c1", "c1cc[se]c1"),
    ("[*]C", "[*]C"),
    ("[CH4]", "C"),
    ("[2H]C", "C[2H]"),
    ("[C-]#[O+]", "[C-]#[O+]"),
]


@pytest.mark.parametrize("text,expected", BRACKET_CANONICAL)
def test_canonical_bracket_atoms_are_pinned(text, expected):
    assert canonical_from_string(text) == expected


def test_graph_atoms_are_not_shared_with_tokens():
    tokens = tokenize("[13CH3]C")
    g = parse_graph(tokens)
    g.atoms[0].charge = 1
    assert tokens[0].atom == Atom(element="C", hcount=3, isotope=13)
    assert parse_graph(tokens).atoms[0].charge == 0


MOLECULES = [
    "C",
    "CCO",
    "CC(C)C",
    "CC(C)(C)CBr",
    "C1CCCCC1",
    "c1ccccc1",
    "Cc1ccccc1",
    "c1ccc2ccccc2c1",
    "CC(=O)OC",
    "CC(=O)O",
    "N#Cc1ccccc1",
    "C1CC1C2CC2",
    "OC1CCCCC1O",
    "CC=C(C)C",
    "CCC(C)(C)Cl",
    "[NH4+].[Cl-]",
    "O=[N+]([O-])c1ccc(Cl)cc1",
    "C/C=C/C=C/C",
    "C1=CC2=CC=CC=C2C=C1",
    "CN1CCC1",
    "[nH]1cccc1",
    "FC(F)(F)c1ccccc1",
]


@pytest.mark.parametrize("text", MOLECULES)
def test_canonical_invariant_under_random_rendering(text):
    g = parse_string(text)
    expected = canonical_smiles(g)
    for seed in range(25):
        alt = random_smiles(g, seed)
        assert canonical_from_string(alt) == expected, f"{text} vs {alt}"


@pytest.mark.parametrize("text", MOLECULES)
def test_random_smiles_parses_and_preserves_counts(text):
    g = parse_string(text)
    for seed in range(5):
        alt = parse_string(random_smiles(g, seed))
        assert len(alt.atoms) == len(g.atoms)
        assert sorted(a.element for a in alt.atoms) == sorted(
            a.element for a in g.atoms
        )
        assert len(alt.bonds()) == len(g.bonds())


def test_random_smiles_deterministic():
    g = parse_string("CC(C)C(=O)O")
    assert random_smiles(g, 3) == random_smiles(g, 3)


def test_canonical_symmetric_molecules():
    # highly symmetric cases exercise the tie-break search
    for text in ("C1CCCCC1", "c1ccccc1", "C1CC1", "C(C)(C)(C)C", "C1CCC1"):
        g = parse_string(text)
        expected = canonical_smiles(g)
        for seed in range(10):
            assert canonical_from_string(random_smiles(g, seed)) == expected


def test_fingerprint_disjoint_molecules():
    a = morgan_fingerprint(parse_string("C"))
    b = morgan_fingerprint(parse_string("O"))
    assert tanimoto(a, b) == 0.0
    assert tanimoto(a, a) == 1.0


def test_fingerprint_self_similarity_across_renderings():
    g = parse_string("CC(=O)Oc1ccccc1C(=O)O")
    fp = morgan_fingerprint(g)
    for seed in range(5):
        alt = parse_string(random_smiles(g, seed))
        assert tanimoto(fp, morgan_fingerprint(alt)) == 1.0


def test_fingerprint_similar_molecules_between_zero_and_one():
    a = morgan_fingerprint(parse_string("CCCO"))
    b = morgan_fingerprint(parse_string("CCCCO"))
    t = tanimoto(a, b)
    assert 0.0 < t < 1.0


def test_fingerprint_empty_graph():
    a = morgan_fingerprint(MolGraph())
    b = morgan_fingerprint(MolGraph())
    assert a.bits == 0
    assert tanimoto(a, b) == 1.0


def test_fingerprint_nonempty_sets_bits():
    assert morgan_fingerprint(parse_string("C")).on_bits()


def test_fingerprint_width_mismatch():
    a = morgan_fingerprint(parse_string("C"), nbits=1024)
    b = morgan_fingerprint(parse_string("C"), nbits=2048)
    with pytest.raises(WidthMismatch):
        tanimoto(a, b)


def test_fingerprint_rejects_bad_width():
    with pytest.raises(ValueError):
        morgan_fingerprint(parse_string("C"), nbits=1000)


def test_graph_edit_roundtrip():
    g = parse_string("CC=C(C)C")
    g.set_bond(1, 2, BondOrder.SINGLE)
    cl = g.add_atom(Atom(element="Cl"))
    g.add_bond(2, cl, BondOrder.SINGLE)
    assert canonical_smiles(g) == canonical_from_string("CCC(C)(C)Cl")


def test_effective_hcount_after_edit():
    g = parse_string("C=C")
    g.set_bond(0, 1, BondOrder.SINGLE)
    assert effective_hcount(g, 0) == 3


def test_subgraph_and_components():
    g = parse_string("CCO.Cl")
    comps = g.components()
    assert [len(c) for c in comps] == [3, 1]
    sub = g.subgraph(comps[0])
    assert canonical_smiles(sub) == canonical_from_string("CCO")


# --- the pruned search against an exhaustive reference --------------------

DATA = Path(rxnseq.__file__).parent / "data"


def corpus_molecules() -> list[str]:
    """Every distinct map-free molecule string of the shipped corpus."""
    lines = (DATA / "corpus_mixed_1k.rsmi").read_text(encoding="utf-8").splitlines()
    molecules = set()
    for line in lines:
        if line.strip():
            for part in line.strip().split(">"):
                molecules.update(strip_atom_maps(m) for m in part.split(".") if m)
    return sorted(molecules)


def exhaustive_canonical(g: MolGraph) -> str:
    """The search without pruning: every member of every tied class is
    individualized, and the smallest leaf rendering wins."""

    def component(sub: MolGraph) -> str:
        bonds = molgraph._bond_keys(sub)
        renderings = []

        def search(ranks):
            ties = [r for r in sorted(set(ranks)) if ranks.count(r) > 1]
            if not ties:
                renderings.append(molgraph._render(sub, ranks.index(0), ranks))
                return
            for atom in [i for i, r in enumerate(ranks) if r == ties[0]]:
                doubled = [r * 2 for r in ranks]
                doubled[atom] -= 1
                search(molgraph._refine(bonds, doubled))

        search(molgraph._refine(bonds, molgraph._initial_ranks(sub)))
        return min(renderings)

    return ".".join(sorted(component(g.subgraph(c)) for c in g.components()))


def bfs_ring_atoms(g: MolGraph) -> list[bool]:
    """Endpoints of every bond whose ends stay connected without it."""
    in_ring = [False] * len(g.atoms)
    for a, b, _ in g.bonds():
        seen, queue = {a}, [a]
        while queue:
            u = queue.pop()
            for v in g.neighbors(u):
                if (u, v) != (a, b) and v not in seen:
                    seen.add(v)
                    queue.append(v)
        if b in seen:
            in_ring[a] = in_ring[b] = True
    return in_ring


# All-carbon cages on random regular graphs: refinement leaves atoms tied
# that no automorphism relates, so which tied atom is tried matters.
CAGES = [
    "C12C3C4C5C1C2C4C35",
    "C12C3C4C5C1C(C45)C23",
    "C12C3C4C5C(C6C4C16)C5C23",
    "C12C3C1C3C1C3C4C(C13)C24",
    "C12C3C4C5C6C(C(C7C1C37)C25)C1C6C41",
    "C12C3C4C1C1C5C6C7C(C6C23)C5C7C41",
    "C123C45C67C11C89C46C27C58C319",
    "C123C45C67C89C11C%10(C88C26C18C49%10)C357",
]


def test_pruned_search_matches_exhaustive_search():
    for text in corpus_molecules() + CAGES:
        g = parse_string(text)
        for rendering in (text, random_smiles(g, 1), random_smiles(g, 2)):
            graph = parse_string(rendering)
            assert molgraph._ring_atoms(graph) == bfs_ring_atoms(graph), rendering
            assert canonical_smiles(graph) == exhaustive_canonical(graph), rendering


def test_ring_atoms_on_fused_bridged_and_spiro_systems():
    for text in ("C12CC1CC2", "C1CC2CCC1C2", "C1CCC12CCC2", "C1CC1CCC1CC1", "CC", "C"):
        g = parse_string(text)
        assert molgraph._ring_atoms(g) == bfs_ring_atoms(g), text


# The two tetra-tert-butyl methanes have 31104 automorphisms each, beyond
# the leaf budget without pruning; the biphenyl has 288.
SYMMETRIC = [
    "c1cc(C(F)(F)F)ccc1-c1ccc(C(F)(F)F)cc1",
    "CC(C)(C)C(C(C)(C)C)(C(C)(C)C)C(C)(C)C",
    "FC(F)(F)C(C(F)(F)F)(C(F)(F)F)C(F)(F)F",
]


@pytest.mark.parametrize("text", SYMMETRIC)
def test_symmetric_molecules_take_few_leaves(monkeypatch, text):
    # the unpruned search renders one leaf per automorphism
    leaves = []
    render = molgraph._render

    def counting(*args, **kwargs):
        leaves.append(args[1])
        return render(*args, **kwargs)

    monkeypatch.setattr(molgraph, "_render", counting)
    canonical_smiles(parse_string(text))
    assert 1 <= len(leaves) <= 16


@pytest.mark.parametrize("text", SYMMETRIC[1:])
def test_highly_symmetric_molecules_canonicalize_within_budget(text):
    g = parse_string(text)
    forms = {canonical_smiles(parse_string(random_smiles(g, seed))) for seed in range(50)}
    assert forms == {canonical_from_string(text)}


# --- the canonical_from_string memo ----------------------------------------


def test_canonical_memo_is_bounded_by_a_module_constant():
    info = canonical_from_string.cache_info()
    assert info.maxsize == molgraph._CANON_CACHE_SIZE > 0
    canonical_from_string("OCC(C)N")
    hits = canonical_from_string.cache_info().hits
    assert canonical_from_string("OCC(C)N") == canonical_smiles(parse_string("OCC(C)N"))
    assert canonical_from_string.cache_info().hits == hits + 1


@pytest.mark.parametrize(
    "text, error",
    [("C1CC", InvalidStructure), ("C(C)(C)(C)(C)C", ValenceError)],
)
def test_invalid_string_raises_on_every_call(text, error):
    for _ in range(3):
        with pytest.raises(error):
            canonical_from_string(text)


def test_long_branched_chain_renders_without_recursion():
    # 1200 atoms on a 1194-atom backbone: emission runs deeper than
    # Python's default recursion limit from either end, and from the root
    # seed 1 picks
    g = parse_string(("C" * 199 + "(C)") * 6)
    rendered = random_smiles(g, 1)
    assert rendered.count("(") == 6
    assert canonical_from_string(rendered) == canonical_smiles(g)
