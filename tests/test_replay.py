"""Byte-identity of the CLI against the committed replay corpus.

``tests/replay/corpus.json`` holds the exit code, stdout digest and
stderr of every request that ``tests/replay/make_corpus.py`` lists; the
full replay is ``python3 tests/replay/make_corpus.py --check``.  Tier-1
replays all of it but three groups: hanoi's three ``stats`` requests at
level 12, one per label, which run the jet bundle to its cap and take
about 5 s together; the sixteen ``gf`` requests at levels 11 and 12, two
weight triples per family and level, which take about 25 s together; and
the three explicit oracles on the 27-edge graphs (``SLOW_ORACLES``),
which take 4.9-7.0 s each.  The eight ``gf`` requests at levels 9 and 10
stay in: they take about 2 s together.  The gaskets read their
statistics off the closed form, so their level-12 requests stay in, as
do the statistics cap refusals at level 13.
"""

import importlib.util
from pathlib import Path

MAKE_CORPUS = Path(__file__).resolve().parent / "replay" / "make_corpus.py"


def _load_make_corpus():
    spec = importlib.util.spec_from_file_location("make_corpus", MAKE_CORPUS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _in_slice(argv, slow_oracles) -> bool:
    if argv[0] == "stats":
        return not (argv[argv.index("--model") + 1] == "hanoi"
                    and argv[argv.index("--level") + 1] == "12")
    if argv[0] != "gf":
        return True
    family, level = argv[argv.index("--family") + 1], argv[argv.index("--level") + 1]
    return level not in ("11", "12") and not (argv[-1] == "oracle"
                                             and (family, level) in slow_oracles)


def test_corpus_lists_the_generator_requests():
    corpus = _load_make_corpus()
    assert [entry["argv"] for entry in corpus.load()] == corpus.requests()


def test_replayed_slice_is_byte_identical():
    corpus = _load_make_corpus()
    entries = [entry for entry in corpus.load() if _in_slice(entry["argv"], corpus.SLOW_ORACLES)]
    assert len(entries) == len(corpus.load()) - 3 - 16 - 3
    assert corpus.differences(entries) == []
