"""Tests of the shared verification pipeline.

The point of :class:`repro.core.pipeline.VerificationPipeline` is that the
encoding / image / reachable-BDD chain is computed once and shared by all
property checks, so these tests pin the caching behaviour as well as the
equivalence with the :func:`repro.api.verify` facade.
"""


from repro import api, corpus
from repro.core import VerificationPipeline
from repro.core import pipeline as pipeline_module
from repro.stg.generators import handshake, mutex_element, vme_read_cycle


class TestSharedChain:
    def test_chain_objects_are_stable(self):
        pipeline = VerificationPipeline(handshake())
        assert pipeline.encoding is pipeline.encoding
        assert pipeline.image is pipeline.image
        assert pipeline.reached is pipeline.reached
        assert pipeline.image.encoding is pipeline.encoding

    def test_traversal_runs_exactly_once(self, monkeypatch):
        calls = []
        original = pipeline_module.symbolic_traversal

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(pipeline_module, "symbolic_traversal", counting)
        pipeline = VerificationPipeline(vme_read_cycle())
        pipeline.consistency()
        pipeline.csc()
        pipeline.signal_persistency()
        pipeline.deadlock_freedom()
        pipeline.run(include_liveness=True)
        assert len(calls) == 1

    def test_property_results_are_cached(self):
        pipeline = VerificationPipeline(handshake())
        assert pipeline.consistency() is pipeline.consistency()
        assert pipeline.csc() is pipeline.csc()

    def test_traversal_stats_available(self):
        pipeline = VerificationPipeline(handshake())
        assert pipeline.traversal_stats.num_states == 4


class TestRunReport:
    def test_matches_checker_facade(self):
        stg = vme_read_cycle()
        via_pipeline = VerificationPipeline(stg).run().as_dict()
        via_facade = api.verify(stg).as_dict()
        via_pipeline.pop("timings")
        via_facade.pop("timings")
        assert via_pipeline == via_facade

    def test_checker_exposes_its_pipeline(self):
        outcome = api.run(handshake())
        assert isinstance(outcome.pipeline, VerificationPipeline)
        # The chain is reusable after the run without another traversal.
        assert (outcome.pipeline.traversal_stats.num_states
                == outcome.report.num_states)

    def test_liveness_fields_filled_only_on_request(self):
        stg = handshake()
        plain = VerificationPipeline(stg).run()
        assert plain.deadlock_free is None and plain.reversible is None
        live = VerificationPipeline(stg).run(include_liveness=True)
        assert live.deadlock_free is True
        assert live.reversible is True
        assert "live" in live.timings

    def test_arbitration_places_are_honoured(self):
        stg = mutex_element()
        tolerant = VerificationPipeline(stg, arbitration_places=["p_me"]).run()
        strict = VerificationPipeline(stg).run()
        assert tolerant.output_persistent is True
        assert strict.output_persistent is False

    def test_initial_values_override_copies_the_stg(self):
        stg = handshake()
        pipeline = VerificationPipeline(stg, initial_values={"r": False})
        assert pipeline.stg is not stg
        assert pipeline.run().consistent is True


class TestCorpusSweep:
    """The pipeline is the engine behind `stg-check batch-check`."""

    def test_full_corpus_matches_metadata(self):
        for name in corpus.names():
            entry = corpus.entry(name)
            pipeline = VerificationPipeline(
                corpus.load(name),
                arbitration_places=entry.arbitration_places)
            report = pipeline.run(include_liveness=True)
            assert entry.mismatches(report) == [], name
