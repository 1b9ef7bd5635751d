"""The whole learn pipeline against its brute-force oracle, on random planted languages."""

from hypothesis import given, reject, settings
from hypothesis import strategies as st

from oracles import brute_extract, brute_learn
from jzr.config import Config
from jzr.extractor import ExtractionTrace, RootExtractor, TraceStep
from jzr.pipeline import learn_rules
from jzr.rules import Thresholds, load_rules, save_rules
from jzr.synthlang import (
    DEFAULT_AFFIXES,
    DEFAULT_TEMPLATES,
    SurfaceCollisionError,
    SynthConfig,
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
    config = Config(thresholds=Thresholds(t_r_orth=draw(st.integers(1, 5))),
                    sample_cap=draw(st.sampled_from([4, 30])))
    return table, config


class TestBruteLearn:
    @settings(max_examples=10)
    @given(planted_languages())
    def test_learn_saves_and_extracts_as_the_oracles(self, tmp_path_factory, language):
        # The validated store equals brute_learn's, floats included; its DB
        # loads back equal; and the loaded DB's extractors give every word
        # brute_extract's trace, in both modes.
        table, config = language
        th, sc = config.thresholds, config.scoring
        _, validated = learn_rules(table, config)
        rules, counts = brute_learn(table, config)
        assert [(r.key, r.support, r.scores.orth, r.scores.sem, r.scores.sampled,
                 r.scores.w_sem) for r in validated] == rules
        assert validated.candidate_counts == counts
        path = tmp_path_factory.mktemp("learn") / "rules.db"
        save_rules(validated, path)
        loaded = load_rules(path)
        assert loaded == validated
        for limited in (False, True):
            extractor = RootExtractor(loaded, table, th, sample_cap=sc.sample_cap,
                                      seed=sc.seed, limited=limited)
            for word in table.words:
                final, status, steps = brute_extract(validated, table, word, th.t_cos_sim,
                                                     th.t_w_sem, limited, sc.sample_cap,
                                                     sc.seed)
                assert extractor.extract(word) == ExtractionTrace(
                    word, tuple(TraceStep(*step) for step in steps), final, status)
