"""The whole learn pipeline against its brute-force oracle, on random planted languages."""

from hypothesis import given, reject, settings
from hypothesis import strategies as st

from oracles import brute_extract, brute_learn
from jzr.config import Config
from jzr.embeddings import EmbeddingTable, load_embeddings
from jzr.extractor import ExtractionTrace, RootExtractor, TraceStep
from jzr.pipeline import learn_rules
from jzr.rules import load_rules, save_rules
from jzr.synthlang import (
    DEFAULT_AFFIXES,
    DEFAULT_TEMPLATES,
    SurfaceCollisionError,
    SynthConfig,
    format_vectors,
    generate,
)

# Root letters, then the planted templates' and affixes' letters, so that a
# drawn alphabet may overlap them and plant accidental rules.
LETTERS = "bdkt" + "maiueo" + "wAhyqcv"


@st.composite
def planted_languages(draw):
    """A small planted language's table, and the settings to learn it with.

    One or two templates and affixes keep a language within about 300
    words at 30 roots, which the all-pairs oracles take well under a
    second to mine. `t_r_orth` of 1 to 5 lets rules validate at this size,
    and a `sample_cap` of 4 makes the large rules' scores sampled ones.
    """
    alphabet = draw(st.lists(st.sampled_from(LETTERS), min_size=3, max_size=8, unique=True))
    synth = SynthConfig(
        n_roots=draw(st.integers(3, min(30, len(alphabet) ** 3))),
        templates=tuple(draw(st.lists(st.sampled_from(DEFAULT_TEMPLATES), min_size=1,
                                      max_size=2, unique=True))),
        affixes=tuple(draw(st.lists(st.sampled_from(DEFAULT_AFFIXES), min_size=1,
                                    max_size=2, unique=True))),
        dim=draw(st.integers(4, 16)),
        noise_sigma=draw(st.floats(0.0, 0.3)),
        alphabet=tuple(alphabet),
        seed=draw(st.integers(0, 2**16)),
        chain_depth=draw(st.integers(1, 2)),
    )
    try:
        _, table, _ = generate(synth)
    except SurfaceCollisionError:
        reject()
    config = Config(t_r_orth=draw(st.integers(1, 5)), sample_cap=draw(st.sampled_from([4, 30])))
    return table, config


class TestBruteLearn:
    @settings(max_examples=10)
    @given(planted_languages())
    def test_learn_saves_and_extracts_as_the_oracles(self, tmp_path_factory, language):
        # The validated store equals brute_learn's, floats included; its DB
        # loads back equal; and the loaded DB's extractors give every word
        # brute_extract's trace, in both modes.
        table, config = language
        th = config.thresholds
        _, validated = learn_rules(table, config)
        rules, counts = brute_learn(table, config)
        assert [(r.key, r.support, r.scores.orth, r.scores.sem, r.scores.sampled,
                 r.scores.w_sem) for r in validated] == rules
        assert validated.candidate_counts == counts
        path = tmp_path_factory.mktemp("learn") / "rules.db"
        save_rules(validated, path)
        loaded = load_rules(path)
        assert loaded == validated and loaded.config == config
        for limited in (False, True):
            extractor = RootExtractor(loaded, table, th, sample_cap=config.sample_cap,
                                      seed=config.seed, limited=limited)
            for word in table.words:
                final, status, steps = brute_extract(validated, table, word, config.t_cos_sim,
                                                     th.t_w_sem, limited, config.sample_cap,
                                                     config.seed)
                assert extractor.extract(word) == ExtractionTrace(
                    word, tuple(TraceStep(*step) for step in steps), final, status)


@st.composite
def noisy_languages(draw):
    """A planted language of 12 to 30 roots with two-step chains, and its
    gold map. Noise keeps scores off 1.0, and from 17 roots some supports
    pass `sample_cap`, so sampled scores are covered too."""
    synth = SynthConfig(n_roots=draw(st.integers(12, 30)), chain_depth=2, noise_sigma=0.1,
                        seed=draw(st.integers(0, 2**16)))
    _, table, gold = generate(synth)
    return table, gold


def learned_db(table, path) -> bytes:
    """The bytes of the rule DB learned from `table` with the default settings."""
    _, validated = learn_rules(table, Config())
    save_rules(validated, path)
    return path.read_bytes()


class TestOrderFreeLearn:
    """What learn saves depends on the vocabulary and its vectors, not on
    the order of the table's rows, their scale or repeated records."""

    @settings(max_examples=3)
    @given(noisy_languages(), st.randoms(use_true_random=False))
    def test_permuted_rows_learn_the_same_db_and_traces(self, tmp_path_factory, language,
                                                        rnd):
        table, gold = language
        order = list(range(len(table)))
        rnd.shuffle(order)
        permuted = EmbeddingTable([table.words[i] for i in order], table.matrix[order])
        tmp = tmp_path_factory.mktemp("permuted")
        lines, traces = [], []
        for t, path in ((table, tmp / "given.db"), (permuted, tmp / "permuted.db")):
            lines.append([line for line in learned_db(t, path).decode().splitlines()
                          if not line.startswith("#vocab-hash ")])
            store = load_rules(path)
            extractors = [RootExtractor(store, limited=limited) for limited in (False, True)]
            traces.append([extractor.extract(w) for extractor in extractors for w in gold])
        assert lines[1] == lines[0]
        assert traces[1] == traces[0]

    @settings(max_examples=3)
    @given(noisy_languages())
    def test_doubled_vectors_learn_a_byte_identical_db(self, tmp_path_factory, language):
        table, _ = language
        tmp = tmp_path_factory.mktemp("doubled")
        doubled = EmbeddingTable(table.words, 2 * table.matrix)
        assert learned_db(doubled, tmp / "doubled.db") == learned_db(table, tmp / "given.db")

    @settings(max_examples=3)
    @given(noisy_languages(), st.data())
    def test_repeated_records_learn_the_same_db(self, tmp_path_factory, language, data):
        table, _ = language
        header, *records = format_vectors(table).splitlines(keepends=True)
        n = len(records)
        # Each repeat of record i goes after record j >= i, so the first
        # occurrence, which the loader keeps, is the original.
        repeats = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                     min_size=1, max_size=8))
        after: dict[int, list[str]] = {}
        for i, j in repeats:
            after.setdefault(max(i, j), []).append(records[i])
        tmp = tmp_path_factory.mktemp("repeated")
        (tmp / "given.txt").write_text(header + "".join(records), encoding="utf-8")
        (tmp / "repeated.txt").write_text(
            header + "".join(r + "".join(after.get(k, ())) for k, r in enumerate(records)),
            encoding="utf-8")
        given, repeated = load_embeddings(tmp / "given.txt"), load_embeddings(tmp / "repeated.txt")
        assert (given.duplicates_dropped, repeated.duplicates_dropped) == (0, len(repeats))
        assert learned_db(repeated, tmp / "repeated.db") == learned_db(given, tmp / "given.db")
