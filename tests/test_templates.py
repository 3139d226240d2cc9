"""Template DSL, matching, application and substrate filter tests."""

import itertools
import random

import pytest

from rxnseq.molgraph import canonical_from_string, canonical_smiles, parse_string
from rxnseq.templates import (
    PatternSyntaxError,
    SubstrateFilter,
    TemplateSyntaxError,
    UnboundMapNumber,
    apply_template,
    count_functional_groups,
    default_substrate_filter,
    enumerate_substrates,
    generate_dataset,
    load_templates,
    match_pattern,
    parse_pattern,
    _atom_compatible,
    _orders_compatible,
)


def template(line):
    (t,) = load_templates([line])
    return t


HYDROCHLORINATION = "hydrochlorination | [C:1]=[C:2] | Cl | | [C:1][C:2]Cl"
HYDRATION = "alkene_hydration | [C:1]=[C:2] | O | OS(=O)(=O)O | [C:1][C:2]O"
DEHYDRATION = "dehydration | [C:1][C:2][OH1;D1:3] | | OS(=O)(=O)O | [C:1]=[C:2]"


def test_parse_pattern_atoms():
    p = parse_pattern("[OH1;D1:3]")
    atom = p.atoms[0]
    assert atom.element == "O"
    assert atom.hcount == 1
    assert atom.min_degree == 1 and atom.max_degree == 1
    assert atom.map_number == 3

    p = parse_pattern("[C;D2-3:1]")
    assert p.atoms[0].min_degree == 2 and p.atoms[0].max_degree == 3

    p = parse_pattern("[N+:4]")
    assert p.atoms[0].charge == 1

    p = parse_pattern("c1ccccc1")
    assert all(a.aromatic for a in p.atoms)
    assert len(p.bonds()) == 6


# Each rejected pattern with the character position it is reported at: a
# lexing error or a rejected token (stereo bond, dot, separator) at its own
# first character, a structure failure at the first character of the token
# it is anchored to.
PATTERN_ERRORS = [
    ("C/C", 1),
    ("C\\C", 1),
    ("C.C", 1),
    ("C>C", 1),
    ("C%1", 1),
    ("C C", 1),
    ("C1CC", 1),
    ("[C", 0),
    ("()", 0),
    ("C(C", 2),
    ("", 0),
    ("[C:1]=", 5),
    ("[OH1;D1:3](", 10),
    ("[C:1]1[C:2]", 5),
    ("[Zz!]", 0),
    ("[C:1]/C", 5),
    ("C.C%1", 1),
    ("[C;D2-3:1]x", 10),
    ("C=1CCCCC#1", 9),
    # two structure failures: the first one found is reported
    ("C1CC)C", 4),
]


def test_parse_pattern_errors():
    for text, position in PATTERN_ERRORS:
        with pytest.raises(PatternSyntaxError) as err:
            parse_pattern(text)
        assert err.value.position == position, text
        assert str(err.value).count("at position") == 1, text


def test_match_pattern_two_embeddings():
    pattern = parse_pattern("[C:1]=[C:2]")
    g = parse_string("CC=C(C)C")
    found = match_pattern(pattern, g)
    assert len(found) == 2
    assert {frozenset(m.values()) for m in found} == {frozenset({1, 2})}


def test_match_pattern_monomorphism_allows_extra_ring_bond():
    # a 3-chain embeds in cyclopropane even though the ring closes it
    pattern = parse_pattern("[C:1][C:2][C:3]")
    g = parse_string("C1CC1")
    assert len(match_pattern(pattern, g)) == 6


def test_match_pattern_without_maps_reports_presence():
    pattern = parse_pattern("C=C")
    assert match_pattern(pattern, parse_string("CC=C")) == [{}]
    assert match_pattern(pattern, parse_string("CCC")) == []


def test_match_respects_constraints():
    hydroxyl = parse_pattern("[OH1;D1:1]")
    assert match_pattern(hydroxyl, parse_string("CCO")) == [{1: 2}]
    assert match_pattern(hydroxyl, parse_string("COC")) == []
    assert match_pattern(hydroxyl, parse_string("CC(=O)O")) == [{1: 3}]

    charged = parse_pattern("[N+:1]")
    assert match_pattern(charged, parse_string("C[N+](C)(C)C")) == [{1: 1}]
    assert match_pattern(charged, parse_string("CN(C)C")) == []

    aromatic_c = parse_pattern("[c:1]")
    assert len(match_pattern(aromatic_c, parse_string("Cc1ccccc1"))) == 6


def brute_force_match(pattern, g):
    """Enumerate injective maps directly; independent of the search code."""
    n = len(pattern.atoms)
    found = set()
    for combo in itertools.permutations(range(len(g.atoms)), n):
        ok = all(
            _atom_compatible(g, combo[i], pattern.atoms[i]) for i in range(n)
        )
        if not ok:
            continue
        for a, b, order in pattern.bonds():
            graph_order = g.bond_order(combo[a], combo[b])
            if graph_order is None or not _orders_compatible(order, graph_order):
                ok = False
                break
        if not ok:
            continue
        found.add(
            tuple(
                sorted(
                    (atom.map_number, combo[i])
                    for i, atom in enumerate(pattern.atoms)
                    if atom.map_number is not None
                )
            )
        )
    return [dict(p) for p in sorted(found)]


MOLECULE_POOL = [
    "C", "CC", "CCC", "CC(C)C", "C=C", "CC=C", "CC=CC", "C#C", "CC#C",
    "CCO", "CC(C)O", "CC=O", "CC(C)=O", "CC(=O)O", "CC(=O)OC", "CCCl",
    "CC(C)Br", "C1CC1", "C1CCC1", "C1CCCC1", "c1ccccc1", "Cc1ccccc1",
    "CC(=O)N", "CC#N", "COC", "OCC(O)C", "ClC(Cl)C", "C=C(C)C", "CC(C)(C)C",
    "N", "O", "CN", "CO", "C=O", "C1CC1O", "CC1CC1", "OC1CCC1",
]

PATTERN_POOL = [
    "[C:1]", "[O:1]", "[N:1]", "[C:1][C:2]", "[C:1]=[C:2]", "[C:1]#[C:2]",
    "[C:1][O:2]", "[C:1]=[O:2]", "[C:1][C:2][C:3]", "[C:1][C:2][O:3]",
    "[C:1]([C:2])[C:3]", "[OH1;D1:1]", "[CH3;D1:1]", "[C;D2:1]",
    "[C:1](=[O:2])[O:3]", "[c:1][c:2]", "[C:1][Cl:2]", "[CH2:1]",
    "[C;D1:1][C;D2:2]", "C[C:1]", "[C:1]1[C:2][C:3]1",
]


def test_match_pattern_equals_brute_force_on_random_pairs():
    rng = random.Random(2024)
    checked = 0
    while checked < 200:
        pattern = parse_pattern(rng.choice(PATTERN_POOL))
        g = parse_string(rng.choice(MOLECULE_POOL))
        if len(g.atoms) > 10:
            continue
        assert match_pattern(pattern, g) == brute_force_match(pattern, g)
        checked += 1


def test_apply_hydrochlorination_markovnikov():
    t = template(HYDROCHLORINATION)
    (record,) = apply_template(t, parse_string("CC=C(C)C"))
    assert record.products == (canonical_from_string("CCC(C)(C)Cl"),)
    assert record.reactants == tuple(
        sorted([canonical_from_string("CC=C(C)C"), "Cl"])
    )
    assert record.smiles().endswith(">" + canonical_from_string("CCC(C)(C)Cl"))


def test_apply_hydration_ethene():
    t = template(HYDRATION)
    (record,) = apply_template(t, parse_string("C=C"))
    assert record.products == (canonical_from_string("CCO"),)
    assert canonical_from_string("O") in record.reactants
    assert record.reagents == (canonical_from_string("OS(=O)(=O)O"),)


def test_apply_no_match_returns_empty():
    t = template(HYDROCHLORINATION)
    assert apply_template(t, parse_string("CCC")) == []


def test_apply_dehydration_removes_mapped_atom():
    t = template(DEHYDRATION)
    (record,) = apply_template(t, parse_string("CCO"))
    assert record.products == (canonical_from_string("C=C"),)


def test_apply_markovnikov_propene():
    t = template(HYDROCHLORINATION)
    (record,) = apply_template(t, parse_string("CC=C"))
    assert record.products == (canonical_from_string("CC(Cl)C"),)


def test_apply_symmetric_alkene_single_product():
    t = template(HYDROCHLORINATION)
    (record,) = apply_template(t, parse_string("CC=CC"))
    assert record.products == (canonical_from_string("CC(Cl)CC"),)


def test_apply_main_product_only_for_ester_hydrolysis():
    t = template(
        "ester_hydrolysis | [C:1][C:2](=[O:3])[O:4][C:5] | O | Cl | "
        "[C:1][C:2](=[O:3])[O:4]"
    )
    (record,) = apply_template(t, parse_string("CC(=O)OC"))
    assert record.products == (canonical_from_string("CC(=O)O"),)


def test_load_templates_validation():
    with pytest.raises(TemplateSyntaxError):
        load_templates(["name-only"])
    with pytest.raises(UnboundMapNumber):
        load_templates(["bad | [C:1]=[C:2] | | | [C:1][C:3]Cl"])
    with pytest.raises(TemplateSyntaxError):
        load_templates(["bad | [C:1].[C:2] | | | [C:1][C:2]"])
    with pytest.raises(TemplateSyntaxError):
        load_templates(["bad | [C:1]=[C:2] | not_smiles( | | [C:1][C:2]"])
    with pytest.raises(TemplateSyntaxError):
        load_templates([HYDROCHLORINATION, HYDROCHLORINATION])


def test_load_templates_skips_comments_and_blanks():
    loaded = load_templates(["# comment", "", HYDROCHLORINATION, "  # another"])
    assert [t.name for t in loaded] == ["hydrochlorination"]


def test_functional_group_counting():
    f = default_substrate_filter()
    assert count_functional_groups(parse_string("CCO"), f) == 1
    assert count_functional_groups(parse_string("CCC"), f) == 0
    # carboxyl counts once, not carbonyl + hydroxyl
    assert count_functional_groups(parse_string("CC(=O)O"), f) == 1
    assert count_functional_groups(parse_string("OCCO"), f) == 2
    assert count_functional_groups(parse_string("C=CCO"), f) == 2
    assert count_functional_groups(parse_string("CC(=O)OC"), f) == 1
    assert count_functional_groups(parse_string("CC#N"), f) == 1


def test_enumerate_substrates_filters():
    f = default_substrate_filter()
    raw = [
        "CC=C",             # fine
        "C=CC=C",           # two alkene groups
        "CCCCCCCCCCC=C",    # too many atoms
        "CC(C)(C)CBr",      # neopentyl-like
        "not_smiles(",      # unparseable
    ]
    graphs, skipped = enumerate_substrates(raw, f)
    assert [canonical_smiles(g) for g in graphs] == [canonical_from_string("CC=C")]
    reasons = [reason for _, _, reason in skipped]
    assert any("functional groups" in r for r in reasons)
    assert any("atom count" in r for r in reasons)
    assert any("forbidden motif" in r for r in reasons)
    assert any("parse error" in r for r in reasons)


def test_enumerate_substrates_halide_expansion():
    f = default_substrate_filter()
    graphs, _ = enumerate_substrates(["CF"], f)
    assert [canonical_smiles(g) for g in graphs] == [
        canonical_from_string(s) for s in ("CF", "CCl", "CBr", "CI")
    ]


def test_generate_dataset_deterministic_and_deduplicated():
    templates = load_templates([HYDROCHLORINATION, HYDRATION])
    substrates = ["C=C", "CC=C", "CC=C", "C=C(C)C"]
    records, failures = generate_dataset(templates, substrates)
    assert failures == []
    keys = [r.smiles() for r in records]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))
    again, _ = generate_dataset(templates, substrates)
    assert [r.smiles() for r in again] == keys


def test_generated_records_are_normalized():
    templates = load_templates([HYDROCHLORINATION])
    records, _ = generate_dataset(templates, ["CC=C(C)C"])
    (record,) = records
    for part in (record.reactants, record.reagents, record.products):
        assert list(part) == sorted(canonical_from_string(s) for s in part)
