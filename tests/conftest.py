import time

import pytest

from heapinv.corpus import VARIANTS, encode_variant, load_corpus
from heapinv.fixpoint import InputDomain, least_fixpoint_info, verdict_from_executor


@pytest.fixture(scope="session")
def domain():
    return InputDomain()


@pytest.fixture(scope="session")
def corpus():
    return load_corpus()


class MatrixRow:
    def __init__(self, entry, program):
        self.entry = entry
        self.program = program
        self.encoded = {}    # variant -> Program
        self.verdicts = {}   # variant -> SafetyVerdict ("orig", "n", encodings)
        # variant -> FixpointInfo; its executor ran the least input alone
        # when the input only indexes the predicates
        self.fixinfo = {}


@pytest.fixture(scope="session")
def corpus_matrix(corpus, domain):
    """Fixed points and verdicts for every corpus entry and every encoding
    variant exercised by the acceptance suite; computed once per session."""
    t0 = time.time()
    rows = {}
    for entry in corpus:
        row = MatrixRow(entry, entry.load())

        def run(key, program):
            info = least_fixpoint_info(program, domain)
            row.fixinfo[key] = info
            row.verdicts[key] = verdict_from_executor(program, domain, info)

        run("orig", row.program)
        for name in VARIANTS:
            program = encode_variant(entry, row.program, name)
            if program is not None:
                row.encoded[name] = program
                run(name, program)
        rows[entry.name] = row
    rows["__build_seconds__"] = time.time() - t0
    return rows
