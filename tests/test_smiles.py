"""Lexer, validation and atom-map stripping tests."""

import random

import pytest

from rxnseq.smiles import (
    Atom,
    MalformedReaction,
    Token,
    TokenKind,
    UnrecognizedCharacter,
    UnterminatedBracket,
    detokenize,
    tokenize,
    validate,
    ValidationKind,
    _assemble,
)
from rxnseq.molgraph import strip_atom_maps
from rxnseq.pipeline import ingest_lines, parse_record
from rxnseq.templates import parse_pattern


def texts(tokens):
    return [t.text for t in tokens]


def kinds(tokens):
    return [t.kind for t in tokens]


def test_tokenize_example_molecule():
    tokens = tokenize("CC=C(C)C.Cl")
    assert texts(tokens) == ["C", "C", "=", "C", "(", "C", ")", "C", ".", "Cl"]
    assert kinds(tokens) == [
        TokenKind.ORGANIC_ATOM,
        TokenKind.ORGANIC_ATOM,
        TokenKind.BOND,
        TokenKind.ORGANIC_ATOM,
        TokenKind.BRANCH_OPEN,
        TokenKind.ORGANIC_ATOM,
        TokenKind.BRANCH_CLOSE,
        TokenKind.ORGANIC_ATOM,
        TokenKind.DOT,
        TokenKind.ORGANIC_ATOM,
    ]


def test_tokenize_reaction_separators():
    tokens = tokenize("CC=C(C)C.Cl>>")
    assert texts(tokens)[-2:] == [">", ">"]
    assert kinds(tokens)[-2:] == [TokenKind.SEPARATOR, TokenKind.SEPARATOR]


@pytest.mark.parametrize(
    "text",
    [
        "CC=C(C)C.Cl",
        "c1ccccc1",
        "C/C=C\\C",
        "[CH3:1][CH2:2]O",
        "O=[N+]([O-])c1ccccc1",
        "C%12CCCCC%12",
        "[13CH4]",
        "F[C@@H](Cl)Br",
        "[nH]1cccc1",
        "CC(=O)O.OCC>O=S(=O)(O)O>CC(=O)OCC",
        "[Na+].[Cl-]",
        "C1=CC2=CC=CC=C2C=C1",
    ],
)
def test_round_trip(text):
    assert detokenize(tokenize(text)) == text


def test_bracket_fields():
    # the atom map is accepted and dropped
    (tok,) = tokenize("[13C@@H2+2:45]")
    assert tok.atom == Atom(element="C", isotope=13, chirality="@@", hcount=2, charge=2)
    (tok,) = tokenize("[O-]")
    assert tok.atom == Atom(element="O", charge=-1, hcount=0)
    (tok,) = tokenize("[nH]")
    assert tok.atom == Atom(element="N", aromatic=True, hcount=1)
    (tok,) = tokenize("[se]")
    assert tok.atom == Atom(element="Se", aromatic=True, hcount=0)
    assert all(t.atom is None for t in tokenize("Cl/C(=O)c1ccccc1%10"))


def test_two_letter_greedy():
    assert texts(tokenize("ClBr")) == ["Cl", "Br"]
    # 'Sc' outside brackets is sulfur then aromatic carbon
    assert texts(tokenize("Sc1ccccc1")) == ["S", "c", "1", "c", "c", "c", "c", "c", "1"]


def test_percent_ring_closure():
    tokens = tokenize("C%10CC%10")
    assert tokens[1].ring_number() == 10
    with pytest.raises(UnrecognizedCharacter):
        tokenize("C%1C")


def test_unrecognized_and_unterminated():
    with pytest.raises(UnrecognizedCharacter) as err:
        tokenize("CCX")
    assert err.value.position == 2
    with pytest.raises(UnterminatedBracket):
        tokenize("C[CH3")
    with pytest.raises(UnrecognizedCharacter):
        tokenize("C[Cqq]C")
    with pytest.raises(UnrecognizedCharacter):
        tokenize("*")  # wildcard atoms only inside brackets


def test_empty_input_is_empty_part():
    assert tokenize("") == []
    assert detokenize([]) == ""


def test_split_reaction():
    record = parse_record("CC=C(C)C.Cl>>CCC(C)(C)Cl")
    assert record.reactants == ("CC=C(C)C", "Cl")
    assert record.reagents == ()
    assert record.products == ("CCC(C)(C)Cl",)
    assert record.smiles() == "CC=C(C)C.Cl>>CCC(C)(C)Cl"
    with pytest.raises(MalformedReaction):
        parse_record("CC>O")
    with pytest.raises(MalformedReaction):
        parse_record("C>C>C>C")


@pytest.mark.parametrize(
    "text",
    ["CCO", "c1ccccc1", "CC(C)(C)Br", "C/C=C/C", "C1CC1.C", "[NH4+]", "C=1CCCCC=1"],
)
def test_validate_accepts(text):
    assert validate(tokenize(text)).ok


@pytest.mark.parametrize(
    "text,kind",
    [
        ("C1CC", ValidationKind.UNPAIRED_RING_CLOSURE),
        ("C(C", ValidationKind.UNCLOSED_BRANCH),
        ("CC)C", ValidationKind.UNMATCHED_BRANCH_CLOSE),
        ("C()C", ValidationKind.EMPTY_BRANCH),
        ("(C)C", ValidationKind.MISPLACED_BRANCH),
        ("C=", ValidationKind.MISPLACED_BOND),
        ("=CC", ValidationKind.MISPLACED_BOND),
        ("C(=)C", ValidationKind.MISPLACED_BOND),
        ("C==C", ValidationKind.MISPLACED_BOND),
        (".CC", ValidationKind.MISPLACED_DOT),
        ("CC.", ValidationKind.MISPLACED_DOT),
        ("C..C", ValidationKind.MISPLACED_DOT),
        ("C11", ValidationKind.RING_SELF_BOND),
        ("C12CC12", ValidationKind.DUPLICATE_RING_BOND),
        ("C=1CCCCC#1", ValidationKind.CONFLICTING_RING_BOND),
        ("1CC", ValidationKind.MISPLACED_RING_CLOSURE),
        ("C>C", ValidationKind.UNEXPECTED_SEPARATOR),
    ],
)
def test_validate_rejects(text, kind):
    result = validate(tokenize(text))
    assert not result.ok
    assert kind in {f.kind for f in result.failures}


def test_strip_atom_maps_collapses_redundant_brackets():
    assert strip_atom_maps("[CH3:1][CH2:2]") == "C[CH2]"


def test_strip_atom_maps_keeps_charged_brackets():
    assert strip_atom_maps("[NH4+:5]") == "[NH4+]"


@pytest.mark.parametrize(
    "mapped,expected",
    [
        ("[CH3:1][OH:2]", "CO"),
        ("[cH:1]1[cH:2][cH:3][cH:4][cH:5][cH:6]1", "c1ccccc1"),
        ("[nH:1]1[cH:2][cH:3][cH:4][cH:5]1", "[nH]1cccc1"),
        ("[C:1](=[O:2])([OH:3])[CH3:4]", "C(=O)(O)C"),
        ("[S:1](=[O:2])(=[O:3])([OH:4])[OH:5]", "S(=O)(=O)(O)O"),
        ("[NH2:1]c1ccccc1", "Nc1ccccc1"),
        ("[CH2:1]=[CH:2][CH3:3]", "C=CC"),
        ("[OH2:1]", "O"),
        ("[H:1][H:2]", "[H][H]"),
        ("[13CH4:9]", "[13CH4]"),
        ("F[C@@H:3](Cl)Br", "F[C@@H](Cl)Br"),
    ],
)
def test_strip_atom_maps_cases(mapped, expected):
    assert strip_atom_maps(mapped) == expected


def test_strip_atom_maps_sulfone_and_hypervalent():
    # bare S carries 6 bond orders here; bracket with 0 H collapses
    assert strip_atom_maps("C[S:1](=O)(=O)C") == "CS(=O)(=O)C"
    # explicit-H nitrogen at valence 3 with 3 bonds cannot collapse
    assert strip_atom_maps("C[NH2:1](C)C") == "C[NH2](C)C"


def ingested(line: str) -> str:
    """The one line ``ingest_lines`` keeps, as it writes it."""
    [record], _ = ingest_lines([line])
    return record.smiles()


def test_strip_atom_maps_idempotent_random():
    stripped = {
        "[CH3:1][C:2](=[O:3])[OH:4].[CH3:5][OH:6]>[H+]>[CH3:1][C:2](=[O:3])[O:4][CH3:5]":
            "CC(=O)O.CO>[H+]>CC(=O)OC",
        "[CH2:1]=[CH2:2].[ClH:3]>>[CH3:1][CH2:2][Cl:3]": "C=C.Cl>>CCCl",
        "c1ccccc1[N+](=O)[O-]>>c1ccccc1N": "c1ccccc1[N+](=O)[O-]>>c1ccccc1N",
    }
    for line, expected in stripped.items():
        once = ingested(line)
        assert once == expected
        assert ingested(once) == once
        assert ":" not in once


def test_strip_preserves_reaction_shape():
    line = "[CH2:1]=[CH2:2].[ClH:3]>>[CH3:1][CH2:2][Cl:3]"
    assert ingested(line) == "C=C.Cl>>CCCl"


def test_tokenize_never_merges_or_drops_characters():
    rng = random.Random(7)
    alphabet = ["C", "Cl", "Br", "O", "N", "(", ")", "=", "#", "1", ".", "c"]
    for _ in range(200):
        text = "C" + "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 30)))
        try:
            tokens = tokenize(text)
        except Exception:
            continue
        assert detokenize(tokens) == text


# Each case: the bond symbols _assemble returns, counted; the biphenyl's
# written "-" between two aromatic atoms is kept.
EXPLICIT_BOND_CASES = [
    ("c1ccccc1C", {":": 6, "-": 1}),
    ("c1ccccc1-c1ccccc1", {":": 12, "-": 1}),
    ("C1=CC=CC=C1", {"=": 3, "-": 3}),
]


@pytest.mark.parametrize("text,counts", EXPLICIT_BOND_CASES)
def test_assemble_gives_every_bond_an_explicit_symbol(text, counts):
    _, bonds, failures = _assemble(tokenize(text))
    assert failures == []
    symbols = [bond.symbol for bond in bonds]
    assert {s: symbols.count(s) for s in set(symbols)} == counts


@pytest.mark.parametrize("text,counts", EXPLICIT_BOND_CASES)
def test_patterns_take_bond_orders_from_the_same_rule(text, counts):
    orders = [order.value for _, _, order in parse_pattern(text).bonds()]
    assert {s: orders.count(s) for s in set(orders)} == counts
