"""Lexer, validation and atom-map stripping tests."""

import hashlib
import random
from pathlib import Path

import pytest

import rxnseq
from rxnseq.smiles import (
    VALENCES,
    Atom,
    MalformedReaction,
    SmilesError,
    Token,
    TokenKind,
    UnrecognizedCharacter,
    UnterminatedBracket,
    bare_hydrogen_fill,
    tokenize,
    ValidationKind,
    _assemble,
)
from rxnseq.molgraph import InvalidStructure, parse_graph, parse_string, strip_atom_maps
from rxnseq.pipeline import data_lines, ingest_lines, parse_record
from rxnseq.templates import PatternSyntaxError, parse_pattern

DATA = Path(rxnseq.__file__).parent / "data"


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
    assert "".join(texts(tokenize(text))) == text


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
    parse_string(text)


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
        (".", ValidationKind.MISPLACED_DOT),
        ("C..", ValidationKind.MISPLACED_DOT),
        ("C11", ValidationKind.RING_SELF_BOND),
        ("C12CC12", ValidationKind.DUPLICATE_RING_BOND),
        ("C=1CCCCC#1", ValidationKind.CONFLICTING_RING_BOND),
        ("1CC", ValidationKind.MISPLACED_RING_CLOSURE),
        ("C>C", ValidationKind.UNEXPECTED_SEPARATOR),
    ],
)
def test_validate_rejects(text, kind):
    with pytest.raises(InvalidStructure) as err:
        parse_string(text)
    failures = err.value.failures
    assert kind in {f.kind for f in failures}
    assert len(set(failures)) == len(failures)  # each failure reported once
    assert list(failures) == sorted(failures, key=lambda f: (f.position, f.kind.value))


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
        assert "".join(texts(tokens)) == text


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


def shipped_molecule_texts():
    """Every corpus line, every substrate, and every coreactant and reagent
    of the shipped templates."""
    for _, line in data_lines(DATA / "corpus_mixed_1k.rsmi"):
        yield line
    for _, line in data_lines(DATA / "substrates.smi"):
        yield line
    for _, line in data_lines(DATA / "templates.txt"):
        for part in line.split("|")[2:4]:
            yield from (m.strip() for m in part.split(";") if m.strip())


def test_tokens_of_the_shipped_data_are_pinned():
    # kind, text and bracket atom of every token, and every lexing error
    digest = hashlib.sha256()
    count = 0
    for text in shipped_molecule_texts():
        count += 1
        try:
            tokens = tokenize(text)
        except SmilesError as exc:
            digest.update(repr((type(exc).__name__, str(exc))).encode() + b"\n")
            continue
        for t in tokens:
            digest.update(repr((t.kind.value, t.text, t.atom)).encode() + b"\n")
        digest.update(b"\n")
    assert count == 1118
    assert digest.hexdigest() == (
        "b004495253cc0c952010657446e1c8f4269063f31ef5dcfb0ca0390630855d66"
    )


# Every fixed-text token the lexer knows, in one string.
FIXED_TEXTS = "ClBrBCNOPSFIbcnops-=#/\\:().>0123456789"


def test_fixed_text_tokens_are_shared():
    assert tokenize("CC")[0] is tokenize("C")[0]
    first, again = tokenize(FIXED_TEXTS), tokenize(FIXED_TEXTS)
    assert len(first) == 36
    assert all(a is b for a, b in zip(first, again))
    assert tokenize("C%10CC%10")[1] is not tokenize("C%10CC%10")[1]


def test_tokens_and_bonds_refuse_assignment():
    shared, bracket = tokenize("C[NH4+]")
    for token in (shared, bracket):
        with pytest.raises(AttributeError):
            token.text = "N"
        with pytest.raises(AttributeError):
            token.atom = None
    _, (bond,), _ = _assemble(tokenize("CC"))
    with pytest.raises(AttributeError):
        bond.symbol = "="
    with pytest.raises(AttributeError):
        bond.a = 5


def test_bracket_tokens_never_share_an_atom():
    first, _, second = tokenize("[NH4+].[NH4+]")
    assert first == second
    assert first.atom is not second.atom
    assert tokenize("[NH4+]")[0].atom is not tokenize("[NH4+]")[0].atom
    # nor does a graph share its atoms with the tokens it was parsed from
    tokens = tokenize("[NH4+]")
    assert parse_graph(tokens).atoms[0] is not tokens[0].atom


@pytest.mark.parametrize(
    "text,position",
    [
        ("C\u00b2", 1),  # superscript two
        ("C\u0663CC\u0663", 1),  # Arabic-Indic three as a ring closure
        ("[\u0663CH4]", 0),  # ... as an isotope
        ("[CH\u0663]", 0),  # ... as a hydrogen count
        ("C%\u0661\u0662CC%12", 1),  # ... as a two-digit ring closure
    ],
    ids=["superscript", "ring-closure", "isotope", "hydrogen-count", "percent-ring-closure"],
)
def test_non_ascii_digits_are_unrecognized(text, position):
    with pytest.raises(UnrecognizedCharacter) as err:
        tokenize(text)
    assert err.value.position == position


def test_pattern_digits_are_ascii_only():
    with pytest.raises(PatternSyntaxError) as err:
        parse_pattern("[C:\u0661]=[C:2]")
    assert err.value.position == 0


def ladder_fill(element, aromatic, bond_order_sum):
    """The valence-ladder rule written out: the lowest valence that holds
    the bonds, and the aromatic slot, less what they use; None when none does."""
    ladder = VALENCES.get(element.capitalize() if len(element) == 1 else element)
    if ladder is None:
        return None
    need = bond_order_sum + (1 if aromatic else 0)
    fits = [v for v in ladder if v >= need]
    return min(fits) - need if fits else None


@pytest.mark.parametrize(
    "element", [*VALENCES, *(e.lower() for e in VALENCES if len(e) == 1)]
)
def test_hydrogen_fill_follows_the_valence_ladder(element):
    for aromatic in (False, True):
        for bond_order_sum in range(9):
            assert bare_hydrogen_fill(element, aromatic, bond_order_sum) == ladder_fill(
                element, aromatic, bond_order_sum
            ), (element, aromatic, bond_order_sum)


def test_hydrogen_fill_spot_values():
    assert bare_hydrogen_fill("C", False, 0) == 4
    assert bare_hydrogen_fill("c", True, 2) == 1
    assert bare_hydrogen_fill("N", False, 4) == 1  # climbs to valence 5
    assert bare_hydrogen_fill("S", True, 2) == 1  # aromatic slot: 3 of 4
    assert bare_hydrogen_fill("C", False, 5) is None
    assert bare_hydrogen_fill("Cl", True, 0) == 0
    assert bare_hydrogen_fill("Cl", True, 1) is None


@pytest.mark.parametrize("element", ["Se", "Xx", "cl", "br", "x", "*", ""])
def test_hydrogen_fill_of_an_unknown_element_is_none(element):
    for aromatic in (False, True):
        for bond_order_sum in range(9):
            assert bare_hydrogen_fill(element, aromatic, bond_order_sum) is None
