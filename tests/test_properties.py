"""Property tests: tokenizer round trips and canonical-form invariance.

Examples are derandomized and no example database is kept, so every run
checks the same cases.
"""

from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from rxnseq import pipeline
from rxnseq.molgraph import canonical_from_string, canonical_smiles, parse_string, random_smiles
from rxnseq.smiles import tokenize

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, database=None)

# Token texts that split back apart unambiguously when concatenated.
TOKENS = (
    "C", "c", "N", "n", "O", "o", "S", "s", "P", "B", "F", "I", "Cl", "Br",
    "[nH]", "[C@@H]", "[O-]", "[NH4+]", "[13CH3]", "[Na+]",
    "-", "=", "#", "/", "\\", ":", "(", ")", "1", "2", "%12", ".", ">",
)


def substrates() -> list[str]:
    path = Path(pipeline.__file__).parent / "data" / "substrates.smi"
    lines = (line.strip() for line in path.read_text(encoding="utf-8").splitlines())
    return [line for line in lines if line and not line.startswith("#")]


@PROPERTY_SETTINGS
@given(st.lists(st.sampled_from(TOKENS), max_size=40))
def test_tokenize_splits_joined_tokens_back_apart(pieces):
    assert [t.text for t in tokenize("".join(pieces))] == pieces


@PROPERTY_SETTINGS
@given(st.sampled_from(substrates()), st.integers(min_value=0, max_value=2**32 - 1))
def test_random_renderings_share_one_canonical_form(molecule, seed):
    graph = parse_string(molecule)
    rendering = random_smiles(graph, seed)
    assert canonical_from_string(rendering) == canonical_smiles(graph)
