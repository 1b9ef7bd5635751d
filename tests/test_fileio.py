import gc

import pytest

from jzr.fileio import collector_paused


@pytest.fixture
def collector_state():
    """Restore the collector's state after a test that changes it."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


class TestCollectorPaused:
    def test_restores_an_enabled_collector(self, collector_state):
        gc.enable()
        with collector_paused():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_leaves_a_disabled_collector_disabled(self, collector_state):
        gc.disable()
        with collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()

    def test_restores_the_state_when_the_body_raises(self, collector_state):
        gc.enable()
        with pytest.raises(KeyError):
            with collector_paused():
                raise KeyError("boom")
        assert gc.isenabled()

    def test_nested_pauses_restore_the_outer_state(self, collector_state):
        gc.enable()
        with collector_paused():
            with collector_paused():
                pass
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_pauses_a_decorated_function_on_every_call(self, collector_state):
        gc.enable()

        @collector_paused()
        def state():
            return gc.isenabled()

        assert [state(), state()] == [False, False]
        assert gc.isenabled()
