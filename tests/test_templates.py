"""Template DSL, matching, application and substrate filter tests."""

import itertools
import random
from pathlib import Path

import pytest

import rxnseq
from rxnseq import templates as templates_module
from rxnseq.molgraph import (
    GraphError,
    canonical_form,
    canonical_from_string,
    canonical_smiles,
    parse_string,
)
from rxnseq.pipeline import ReactionRecord
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
    load_templates_file,
    match_pattern,
    parse_pattern,
    _atom_compatible,
    _edit_substrate,
    _heavy_degree,
    _orders_compatible,
    _parts,
)

DATA = Path(rxnseq.__file__).parent / "data"


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
    with pytest.raises(PatternSyntaxError, match="pattern has no atoms"):
        parse_pattern("")


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

# Needs two chlorines: the element precheck rejects CCCl, and ClC(Cl)C matches.
TWO_CHLORINES = "[Cl:1][C:2][Cl:3]"

PATTERN_POOL = [
    "[C:1]", "[O:1]", "[N:1]", "[C:1][C:2]", "[C:1]=[C:2]", "[C:1]#[C:2]",
    "[C:1][O:2]", "[C:1]=[O:2]", "[C:1][C:2][C:3]", "[C:1][C:2][O:3]",
    "[C:1]([C:2])[C:3]", "[OH1;D1:1]", "[CH3;D1:1]", "[C;D2:1]",
    "[C:1](=[O:2])[O:3]", "[c:1][c:2]", "[C:1][Cl:2]", "[CH2:1]",
    "[C;D1:1][C;D2:2]", "C[C:1]", "[C:1]1[C:2][C:3]1",
    TWO_CHLORINES,
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
    pattern = parse_pattern(TWO_CHLORINES)
    for text in ("CCCl", "ClC(Cl)C"):
        g = parse_string(text)
        assert match_pattern(pattern, g) == brute_force_match(pattern, g), text


def test_precheck_searches_nothing(monkeypatch):
    calls = []
    compatible = templates_module._atom_compatible

    def counting(*args):
        calls.append(args)
        return compatible(*args)

    monkeypatch.setattr(templates_module, "_atom_compatible", counting)
    # one chlorine too few
    assert match_pattern(parse_pattern(TWO_CHLORINES), parse_string("CC(C)CCl")) == []
    assert calls == []
    assert match_pattern(parse_pattern(TWO_CHLORINES), parse_string("ClC(Cl)C")) == [
        {1: 0, 2: 1, 3: 2},
        {1: 2, 2: 1, 3: 0},
    ]
    assert calls


def test_apply_hydrochlorination_markovnikov():
    t = template(HYDROCHLORINATION)
    (record,) = apply_template(t, canonical_form(parse_string("CC=C(C)C")))
    assert record.products == (canonical_from_string("CCC(C)(C)Cl"),)
    assert record.reactants == tuple(
        sorted([canonical_from_string("CC=C(C)C"), "Cl"])
    )
    assert record.smiles().endswith(">" + canonical_from_string("CCC(C)(C)Cl"))


def test_apply_hydration_ethene():
    t = template(HYDRATION)
    (record,) = apply_template(t, canonical_form(parse_string("C=C")))
    assert record.products == (canonical_from_string("CCO"),)
    assert canonical_from_string("O") in record.reactants
    assert record.reagents == (canonical_from_string("OS(=O)(=O)O"),)


def test_apply_no_match_returns_empty():
    t = template(HYDROCHLORINATION)
    assert apply_template(t, canonical_form(parse_string("CCC"))) == []


def test_apply_dehydration_removes_mapped_atom():
    t = template(DEHYDRATION)
    (record,) = apply_template(t, canonical_form(parse_string("CCO")))
    assert record.products == (canonical_from_string("C=C"),)


def test_apply_markovnikov_propene():
    t = template(HYDROCHLORINATION)
    (record,) = apply_template(t, canonical_form(parse_string("CC=C")))
    assert record.products == (canonical_from_string("CC(Cl)C"),)


def test_apply_symmetric_alkene_single_product():
    t = template(HYDROCHLORINATION)
    (record,) = apply_template(t, canonical_form(parse_string("CC=CC")))
    assert record.products == (canonical_from_string("CC(Cl)CC"),)


def test_apply_main_product_only_for_ester_hydrolysis():
    t = template(
        "ester_hydrolysis | [C:1][C:2](=[O:3])[O:4][C:5] | O | Cl | "
        "[C:1][C:2](=[O:3])[O:4]"
    )
    (record,) = apply_template(t, canonical_form(parse_string("CC(=O)OC")))
    assert record.products == (canonical_from_string("CC(=O)O"),)


# Each refused template file with its error type and message.  The dot
# cases show what keeps every pattern one connected component.
TEMPLATE_ERRORS = [
    (["name-only"], TemplateSyntaxError,
     "line 1: expected 5 '|' separated fields, found 1"),
    ([" | C | | | C"], TemplateSyntaxError, "line 1: empty template name"),
    (["bad | [C:1]=[C:2] | | | [C:1][C:3]Cl"], UnboundMapNumber,
     "template 'bad': product map :3 does not appear in the substrate pattern"),
    (["bad | [C:1].[C:2] | | | [C:1][C:2]"], TemplateSyntaxError,
     "line 1: unrecognized pattern text '.' at position 5"),
    (["bad | [C:1]=[C:2] | | | [C:1].[C:2]"], TemplateSyntaxError,
     "line 1: unrecognized pattern text '.' at position 5"),
    (["bad | [C:1][C:1] | | | [C:1]"], TemplateSyntaxError,
     "line 1: duplicate map number in substrate"),
    (["bad | [C:1][C:2] | | | [C:1][C:1]"], TemplateSyntaxError,
     "line 1: duplicate map number in product"),
    (["bad | [C:1] | | | [C:1][*]"], TemplateSyntaxError,
     "line 1: introduced product atoms must name an element"),
    (["bad | [C:1]=[C:2] | not_smiles( | | [C:1][C:2]"], TemplateSyntaxError,
     "line 1: bad coreactant/reagent SMILES 'not_smiles(': "
     "unrecognized character ('t') at position 2"),
    (["bad | [C:1]=[C:2] | | C1CC | [C:1][C:2]"], TemplateSyntaxError,
     "line 1: bad coreactant/reagent SMILES 'C1CC': "
     "structurally invalid token sequence: unpaired_ring_closure@1"),
    ([HYDROCHLORINATION, HYDROCHLORINATION], TemplateSyntaxError,
     "line 2: duplicate template name 'hydrochlorination'"),
]


def test_load_templates_validation():
    for lines, error, message in TEMPLATE_ERRORS:
        with pytest.raises(error) as err:
            load_templates(lines)
        assert str(err.value) == message


def test_load_templates_canonicalizes_coreactants_and_reagents():
    t = template("x | [C:1]=[C:2] | OCC;; [Na+].[Cl-] | ;O=S(=O)(O)O | [C:1][C:2]")
    assert t.coreactants == ("CCO", "[Cl-]", "[Na+]")
    assert t.reagents == (canonical_from_string("OS(=O)(=O)O"),)


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
        "[H][H]",           # no heavy atom
    ]
    accepted, skipped = enumerate_substrates(raw, f)
    (form,) = accepted
    assert form.smiles == canonical_smiles(form.graph) == canonical_from_string("CC=C")
    assert skipped == [
        (2, "C=CC=C", "2 functional groups"),
        (3, "C=CCCCCCCCCCC", "atom count out of range"),
        (4, "BrCC(C)(C)C", "forbidden motif"),
        (5, "not_smiles(", "parse error: unrecognized character ('t') at position 2"),
        (6, "[H][H]", "atom count out of range"),
    ]


def test_enumerate_substrates_halide_expansion():
    f = default_substrate_filter()
    accepted, _ = enumerate_substrates(["CF"], f)
    assert [canonical_smiles(form.graph) for form in accepted] == [
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



# --- the skips against the unskipped application ---------------------------


def reference_apply(template, substrate):
    """Application as it was before any skip: every embedding is edited,
    every best-scoring product is canonicalized, and so is the substrate."""
    best_score = -2
    best = []
    for embedding in match_pattern(template.substrate_pattern, substrate):
        work, kept, gained = _edit_substrate(substrate, template, embedding)
        score = max((_heavy_degree(work, i) for i in gained), default=-1)
        if score > best_score:
            best_score, best = score, []
        if score == best_score:
            best.append((work, kept))
    if not best:
        return []
    products = min(
        tuple(canonical_smiles(work.subgraph(kept)).split(".")) for work, kept in best
    )
    reactants = _parts(canonical_smiles(substrate)) + list(template.coreactants)
    return [
        ReactionRecord(
            reactants=tuple(sorted(reactants)),
            reagents=tuple(sorted(template.reagents)),
            products=products,
        )
    ]


def outcome(apply, *args):
    """The records ``apply`` returns, or the error it raises as (type, text)."""
    try:
        return apply(*args)
    except GraphError as exc:
        return type(exc), str(exc)


def shipped():
    templates = load_templates_file(DATA / "templates.txt")
    substrates = (DATA / "substrates.smi").read_text(encoding="utf-8").splitlines()
    accepted, _ = enumerate_substrates(substrates, default_substrate_filter())
    return templates, accepted


def test_apply_matches_the_unskipped_application_on_the_shipped_data():
    templates, accepted = shipped()
    pairs = 0
    for template in templates:
        for form in accepted:
            expected = outcome(reference_apply, template, form.graph)
            got = outcome(apply_template, template, form)
            assert got == expected, (template.name, form.smiles)
            pairs += 1
    assert pairs == 1674


# Symmetric substrates, one with two equal components, and a template
# every application of which fails.
SYMMETRIC_SUBSTRATES = ["C=C", "C1=CCCCC1", "CC(C)=C(C)C", "C=CC=C", "C=C.C=C"]
OVERFILL = "overfill | [C:1]=[C:2] | | | [C:1]=[C:2](=O)=O"


def test_apply_matches_the_unskipped_application_on_symmetric_substrates():
    templates = shipped()[0] + load_templates([OVERFILL])
    for text in SYMMETRIC_SUBSTRATES:
        form = canonical_form(parse_string(text))
        for template in templates:
            expected = outcome(reference_apply, template, form.graph)
            assert outcome(apply_template, template, form) == expected, (template.name, text)


def test_gen_canonicalizes_each_substrate_once_and_no_mirrored_product(monkeypatch):
    """One ``gen`` on the shipped data: each substrate variant is
    canonicalized once, in ``enumerate_substrates``.  An application
    canonicalizes only products: it edits no embedding that a substrate
    automorphism maps onto an edited one, and canonicalizes no product
    identical to an earlier one."""
    # each call as (its graph's id, whether an application made it)
    forms, strings, edits = [], [], []
    applying = []
    for name, calls in (("canonical_form", forms), ("canonical_smiles", strings),
                        ("_edit_substrate", edits)):
        original = getattr(templates_module, name)

        def counting(*args, original=original, calls=calls):
            calls.append((id(args[0]), bool(applying)))
            return original(*args)

        monkeypatch.setattr(templates_module, name, counting)
    apply = templates_module.apply_template

    def applying_one(*args):
        applying.append(args)
        try:
            return apply(*args)
        finally:
            applying.pop()

    monkeypatch.setattr(templates_module, "apply_template", applying_one)
    substrates = (DATA / "substrates.smi").read_text(encoding="utf-8").splitlines()
    records, failures = generate_dataset(
        load_templates_file(DATA / "templates.txt"), substrates
    )
    assert len(records) == 291 and failures == []
    # 93 substrate lines, every one parsing and none with fluorine
    variants = {graph for graph, _ in forms}
    assert len(variants) == len(forms) == 93
    assert not any(inside for _, inside in forms)
    assert all(inside and graph not in variants for graph, inside in strings)
    # the unskipped application edits 528 embeddings and canonicalizes
    # 461 products and 291 substrates
    assert len(edits) == 469
    assert len(strings) == 360
