"""Work marked ``holds_gil`` runs in the calling thread on thread
runtimes, and the rule-based codecs are marked so."""

import dataclasses
import threading

import numpy as np

from repro.bound import Bound
from repro.codecs import get_codec, list_codecs
from repro.codecs.rule_based import RuleBasedCodec, SZCodec
from repro.pipeline import CodecEngine, MultiVariableCompressor
from repro.pipeline.executors import ThreadExecutor
from repro.runtime import Task, TaskRuntime


def _ident(_):
    return threading.get_ident()


class TestRuntime:
    def test_thread_mode_runs_gil_bound_tasks_inline(self):
        with TaskRuntime(mode="thread", max_workers=4) as rt:
            idents = rt.map(_ident, range(6), holds_gil=True)
            assert set(idents) == {threading.get_ident()}
            assert rt._thread_pool is None

    def test_thread_mode_still_pools_other_tasks(self):
        with TaskRuntime(mode="thread", max_workers=4) as rt:
            idents = rt.map(_ident, range(6))
            assert threading.get_ident() not in idents
            assert rt._thread_pool is not None

    def test_process_mode_still_fans_out(self):
        with TaskRuntime(mode="process", max_workers=2) as rt:
            assert rt.map(abs, [-1, -2, -3], holds_gil=True) == [1, 2, 3]
            assert rt._process_pool is not None

    def test_inline_path_keeps_events_and_callbacks(self):
        events, results = [], []
        tasks = [Task(task_id=f"t{i}", fn=abs, payload=-i, index=i)
                 for i in range(3)]
        with TaskRuntime(mode="thread", max_workers=2) as rt:
            outcomes = rt.run(tasks, on_result=results.append,
                              on_event=events.append, holds_gil=True)
        assert [o.value for o in outcomes] == [0, 1, 2]
        assert [o.task_id for o in results] == ["t0", "t1", "t2"]
        assert [e.kind for e in events] == ["submitted", "completed"] * 3


class TestCodecs:
    def test_rule_based_codecs_hold_the_gil(self):
        for name in list_codecs():
            codec = get_codec(name)
            assert codec.capabilities.holds_gil == isinstance(
                codec, RuleBasedCodec), name


def _stacks():
    rng = np.random.default_rng(0)
    return [rng.standard_normal((4, 8, 8)).astype(np.float32)
            for _ in range(3)]


class _PooledSZ(SZCodec):
    """szlike declared as GIL-releasing, to show the engine asks."""

    capabilities = dataclasses.replace(SZCodec.capabilities,
                                       holds_gil=False)


class TestEngine:
    def test_rule_based_batch_skips_the_pool(self):
        with ThreadExecutor(max_workers=2) as ex:
            engine = CodecEngine("szlike", executor=ex)
            batch = engine.compress(_stacks(), bound=Bound.nrmse(0.05))
            engine.decompress([r.result.payload for r in batch.reports])
            assert ex.runtime._thread_pool is None

    def test_other_codecs_use_the_pool(self):
        with ThreadExecutor(max_workers=2) as ex:
            engine = CodecEngine(_PooledSZ(), executor=ex)
            engine.compress(_stacks(), bound=Bound.nrmse(0.05))
            assert ex.runtime._thread_pool is not None

    def test_inline_bytes_match_pooled_bytes(self):
        with ThreadExecutor(max_workers=2) as ex:
            inline = CodecEngine("szlike", executor=ex).compress(
                _stacks(), bound=Bound.nrmse(0.05))
            pooled = CodecEngine(_PooledSZ(), executor=ex).compress(
                _stacks(), bound=Bound.nrmse(0.05))
        assert ([r.result.payload for r in inline.reports]
                == [r.result.payload for r in pooled.reports])

    def test_multivar_skips_the_pool(self):
        data = np.stack(_stacks())
        mv = MultiVariableCompressor("szlike", max_workers=2)
        result = mv.compress(data, bound=Bound.nrmse(0.05))
        mv.decompress(result.archive())
        assert mv._executor.runtime._thread_pool is None
        pooled = MultiVariableCompressor(_PooledSZ(), max_workers=2)
        pooled.compress(data, bound=Bound.nrmse(0.05))
        assert pooled._executor.runtime._thread_pool is not None

