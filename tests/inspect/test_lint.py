"""AST linter rules, config loading, and suppression syntax."""

import textwrap
from pathlib import Path

import pytest

from repro.inspect import LintConfig, lint_paths, load_config
from repro.inspect.lint import ALL_RULES

REPO_ROOT = Path(__file__).resolve().parents[2]


def _lint_source(tmp_path, source, rel="src/repro/tensor/mod.py",
                 config=None):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    if config is None:
        config = LintConfig(disabled=frozenset({"gradcheck-coverage"}))
    return lint_paths([path], root=tmp_path, config=config)


class TestDtypePolicy:
    def test_bare_np_zeros_is_flagged(self, tmp_path):
        report = _lint_source(tmp_path, """
            import numpy as np
            buf = np.zeros((3, 3))
        """)
        assert [f.rule for f in report.findings] == ["dtype-policy"]
        assert report.findings[0].line == 3

    def test_explicit_dtype_passes(self, tmp_path):
        report = _lint_source(tmp_path, """
            import numpy as np
            buf = np.zeros((3, 3), dtype=np.float32)
        """)
        assert report.ok

    def test_asarray_and_like_variants_are_exempt(self, tmp_path):
        report = _lint_source(tmp_path, """
            import numpy as np
            a = np.asarray([1.0])
            b = np.zeros_like(a)
        """)
        assert report.ok

    def test_rule_only_applies_under_configured_paths(self, tmp_path):
        report = _lint_source(tmp_path, """
            import numpy as np
            buf = np.zeros((3, 3))
        """, rel="src/repro/viz/plot.py")
        assert report.ok  # viz is not a dtype-policy path

    def test_inline_suppression_comment(self, tmp_path):
        report = _lint_source(tmp_path, """
            import numpy as np
            buf = np.zeros((3, 3))  # lint: ignore[dtype-policy]
        """)
        assert report.ok

    def test_suppression_is_rule_specific(self, tmp_path):
        report = _lint_source(tmp_path, """
            import numpy as np
            buf = np.zeros((3, 3))  # lint: ignore[mutable-default]
        """)
        assert not report.ok  # wrong rule name does not silence it


class TestOptimizerOut:
    def test_allocation_inside_update_kernel_is_flagged(self, tmp_path):
        report = _lint_source(tmp_path, """
            import numpy as np

            class SGD:
                def _update(self, param, grad):
                    step = np.multiply(grad, 0.1)
                    param -= step
        """, rel="src/repro/optim/sgd.py")
        assert [f.rule for f in report.findings] == ["optimizer-out"]

    def test_out_keyword_passes(self, tmp_path):
        report = _lint_source(tmp_path, """
            import numpy as np

            class SGD:
                def _update(self, param, grad, buf):
                    np.multiply(grad, 0.1, out=buf)
        """, rel="src/repro/optim/sgd.py")
        assert report.ok

    def test_allocation_inside_the_block_kernel_is_flagged(self, tmp_path):
        # The real Adam block kernel, clean as shipped, then with one
        # allocating np.multiply added to it.
        source = (REPO_ROOT / "src/repro/optim/adam.py").read_text()
        assert _lint_source(tmp_path, source,
                            rel="src/repro/optim/adam.py").ok
        anchor = "        m *= beta1\n"
        assert anchor in source
        mutated = source.replace(
            anchor, "        scaled = np.multiply(grad, 0.1)\n" + anchor)
        report = _lint_source(tmp_path, mutated,
                              rel="src/repro/optim/adam.py")
        assert [f.rule for f in report.findings] == ["optimizer-out"]
        assert "np.multiply" in report.findings[0].message

    def test_rule_is_scoped_to_update_functions(self, tmp_path):
        report = _lint_source(tmp_path, """
            import numpy as np

            def helper(grad):
                return np.multiply(grad, 0.1)
        """, rel="src/repro/optim/sgd.py")
        assert report.ok


class TestMutableDefault:
    def test_list_literal_default_is_flagged(self, tmp_path):
        report = _lint_source(tmp_path, """
            def f(items=[]):
                return items
        """, rel="src/repro/viz/plot.py")
        assert [f.rule for f in report.findings] == ["mutable-default"]
        assert "f()" in report.findings[0].message

    def test_dict_call_default_is_flagged(self, tmp_path):
        report = _lint_source(tmp_path, """
            def f(*, mapping=dict()):
                return mapping
        """, rel="src/repro/viz/plot.py")
        assert [f.rule for f in report.findings] == ["mutable-default"]

    def test_none_default_passes(self, tmp_path):
        report = _lint_source(tmp_path, """
            def f(items=None, count=3, name="x"):
                return items
        """, rel="src/repro/viz/plot.py")
        assert report.ok


class TestGradcheckCoverage:
    def test_registry_is_complete_so_rule_is_quiet(self, tmp_path):
        (tmp_path / "empty.py").write_text("")
        report = lint_paths([tmp_path / "empty.py"], root=tmp_path,
                            config=LintConfig())
        assert report.ok

    def test_uncovered_ops_is_empty(self):
        from repro.inspect.gradcov import uncovered_ops

        assert uncovered_ops() == []


class TestConfig:
    def test_load_config_reads_pyproject_table(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(textwrap.dedent("""
            [tool.repro.lint]
            disable = ["mutable-default"]
            dtype-policy-paths = ["src/only"]

            [tool.repro.lint.per-path-ignores]
            "src/only/legacy.py" = ["dtype-policy"]
        """))
        config = load_config(tmp_path)
        assert config.disabled == frozenset({"mutable-default"})
        assert config.dtype_policy_paths == ("src/only",)
        assert not config.rule_applies("mutable-default", "src/only/a.py")
        assert config.rule_applies("dtype-policy", "src/only/a.py")
        assert not config.rule_applies("dtype-policy", "src/only/legacy.py")
        assert not config.rule_applies("dtype-policy", "src/other/a.py")

    def test_unknown_disabled_rule_raises(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            "[tool.repro.lint]\ndisable = [\"no-such-rule\"]\n")
        with pytest.raises(ValueError, match="no-such-rule"):
            load_config(tmp_path)

    def test_missing_pyproject_falls_back_to_defaults(self, tmp_path):
        config = load_config(tmp_path)
        assert config.disabled == frozenset()

    def test_all_rules_names_are_stable(self):
        # docs/static_analysis.md documents these names; renaming one is
        # a breaking change for pyproject configs and suppressions.
        assert ALL_RULES == ("dtype-policy", "gradcheck-coverage",
                             "optimizer-out", "mutable-default",
                             "fork-discipline", "alloc", "bounded-buffer",
                             "thread-discipline")


class TestForkDiscipline:
    def test_multiprocessing_process_is_flagged(self, tmp_path):
        report = _lint_source(tmp_path, """
            import multiprocessing
            proc = multiprocessing.Process(target=print)
        """, rel="src/repro/training/loop.py")
        assert [f.rule for f in report.findings] == ["fork-discipline"]
        assert "repro.parallel" in report.findings[0].message

    def test_module_alias_and_from_import_are_flagged(self, tmp_path):
        report = _lint_source(tmp_path, """
            import multiprocessing as mp
            from multiprocessing import Pool as P
            ctx = mp.get_context("fork")
            pool = P(4)
        """, rel="src/repro/training/loop.py")
        assert [f.rule for f in report.findings] == ["fork-discipline"] * 2

    def test_os_fork_is_flagged(self, tmp_path):
        report = _lint_source(tmp_path, """
            import os
            pid = os.fork()
        """, rel="src/repro/training/loop.py")
        assert [f.rule for f in report.findings] == ["fork-discipline"]
        assert "os.fork" in report.findings[0].message

    def test_repro_parallel_is_exempt_via_per_path_ignores(self, tmp_path):
        config = LintConfig(
            disabled=frozenset({"gradcheck-coverage"}),
            per_path_ignores={"src/repro/parallel": frozenset(
                {"fork-discipline"})})
        report = _lint_source(tmp_path, """
            import multiprocessing
            ctx = multiprocessing.get_context("fork")
        """, rel="src/repro/parallel/engine.py", config=config)
        assert report.ok

    def test_non_forking_multiprocessing_use_passes(self, tmp_path):
        report = _lint_source(tmp_path, """
            import multiprocessing
            alive = multiprocessing.active_children()
            count = multiprocessing.cpu_count()
        """, rel="src/repro/training/loop.py")
        assert report.ok

    def test_unrelated_process_name_passes(self, tmp_path):
        # A local helper that happens to be called Process must not trip
        # the rule: only names bound to multiprocessing count.
        report = _lint_source(tmp_path, """
            def Process(target):
                return target
            proc = Process(target=print)
        """, rel="src/repro/training/loop.py")
        assert report.ok


class TestAlloc:
    """The opt-in zero-allocation rule for compiled-plan hot paths."""

    CONFIG = LintConfig(disabled=frozenset({"gradcheck-coverage"}),
                        alloc_paths=("src/repro/compile",))

    def test_allocating_call_is_flagged_in_configured_paths(self, tmp_path):
        report = _lint_source(tmp_path, """
            import numpy as np
            buf = np.empty((3, 3), dtype=np.float64)
        """, rel="src/repro/compile/plan.py", config=self.CONFIG)
        assert [f.rule for f in report.findings] == ["alloc"]
        assert "out=" in report.findings[0].message

    def test_out_keyword_passes(self, tmp_path):
        report = _lint_source(tmp_path, """
            import numpy as np

            def kernel(a, b, buf):
                np.matmul(a, b, out=buf)
                np.copyto(buf, a)
        """, rel="src/repro/compile/plan.py", config=self.CONFIG)
        assert report.ok

    def test_silent_outside_configured_paths(self, tmp_path):
        report = _lint_source(tmp_path, """
            import numpy as np
            buf = np.empty((3, 3), dtype=np.float64)
        """, rel="src/repro/tensor/mod.py", config=self.CONFIG)
        assert report.ok

    def test_rule_is_opt_in_by_default(self, tmp_path):
        # An empty alloc-paths config (the LintConfig default) means the
        # rule never fires, anywhere.
        report = _lint_source(tmp_path, """
            import numpy as np
            buf = np.empty((3, 3), dtype=np.float64)
        """, rel="src/repro/compile/plan.py")
        assert report.ok

    def test_inline_suppression_for_plan_build_allocations(self, tmp_path):
        report = _lint_source(tmp_path, """
            import numpy as np
            ones = np.ones_like(np.float64(0.0))  # lint: ignore[alloc]
        """, rel="src/repro/compile/step.py", config=self.CONFIG)
        assert report.ok

    def test_alloc_paths_loaded_from_pyproject(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(textwrap.dedent("""
            [tool.repro.lint]
            alloc-paths = ["src/repro/compile", "src/repro/tensor/scratch.py"]
        """))
        config = load_config(tmp_path)
        assert config.alloc_paths == ("src/repro/compile",
                                      "src/repro/tensor/scratch.py")
        assert config.rule_applies("alloc", "src/repro/compile/plan.py")
        assert config.rule_applies("alloc", "src/repro/tensor/scratch.py")
        assert not config.rule_applies("alloc", "src/repro/tensor/ops.py")


class TestBoundedBuffer:
    """Every deque under repro.stream must declare its maxlen bound."""

    def test_unbounded_deque_is_flagged_in_stream_paths(self, tmp_path):
        report = _lint_source(tmp_path, """
            from collections import deque
            buffer = deque()
        """, rel="src/repro/stream/ingest.py")
        assert [f.rule for f in report.findings] == ["bounded-buffer"]
        assert "maxlen" in report.findings[0].message

    def test_maxlen_keyword_passes(self, tmp_path):
        report = _lint_source(tmp_path, """
            from collections import deque
            buffer = deque(maxlen=64)
        """, rel="src/repro/stream/ingest.py")
        assert report.ok

    def test_positional_maxlen_passes(self, tmp_path):
        report = _lint_source(tmp_path, """
            from collections import deque
            buffer = deque([], 64)
        """, rel="src/repro/stream/ingest.py")
        assert report.ok

    def test_module_attribute_and_alias_are_flagged(self, tmp_path):
        report = _lint_source(tmp_path, """
            import collections
            from collections import deque as dq
            a = collections.deque()
            b = dq()
        """, rel="src/repro/stream/drift.py")
        assert [f.rule for f in report.findings] == ["bounded-buffer"] * 2

    def test_silent_outside_stream_paths(self, tmp_path):
        report = _lint_source(tmp_path, """
            from collections import deque
            buffer = deque()
        """, rel="src/repro/training/trainer.py")
        assert report.ok

    def test_inline_suppression(self, tmp_path):
        report = _lint_source(tmp_path, """
            from collections import deque
            buffer = deque()  # lint: ignore[bounded-buffer]
        """, rel="src/repro/stream/ingest.py")
        assert report.ok

    def test_unrelated_deque_name_passes(self, tmp_path):
        # A local helper *called* deque is not collections.deque.
        report = _lint_source(tmp_path, """
            def deque_like():
                return []
            buffer = deque_like()
        """, rel="src/repro/stream/ingest.py")
        assert report.ok

    def test_bounded_buffer_paths_loaded_from_pyproject(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(textwrap.dedent("""
            [tool.repro.lint]
            bounded-buffer-paths = ["src/repro/stream", "src/repro/serve"]
        """))
        config = load_config(tmp_path)
        assert config.bounded_buffer_paths == ("src/repro/stream",
                                               "src/repro/serve")
        assert config.rule_applies("bounded-buffer", "src/repro/serve/b.py")
        assert not config.rule_applies("bounded-buffer", "src/repro/nn/a.py")

    def test_stream_package_is_clean(self):
        # The rule holds on the real package: no unbounded buffers.
        from pathlib import Path
        root = Path(__file__).resolve().parents[2]
        report = lint_paths(
            [root / "src/repro/stream"], root=root,
            config=LintConfig(disabled=frozenset({"gradcheck-coverage"})))
        assert report.ok, report.format_text()


class TestReportMechanics:
    def test_syntax_error_becomes_parse_error_finding(self, tmp_path):
        report = _lint_source(tmp_path, "def broken(:\n")
        assert [f.rule for f in report.findings] == ["parse-error"]

    def test_directory_walk_and_sorted_output(self, tmp_path):
        config = LintConfig(disabled=frozenset({"gradcheck-coverage"}))
        base = tmp_path / "src/repro/tensor"
        base.mkdir(parents=True)
        (base / "b.py").write_text("import numpy as np\nx = np.ones(3)\n")
        (base / "a.py").write_text("import numpy as np\nx = np.eye(3)\n")
        report = lint_paths([tmp_path / "src"], root=tmp_path,
                            config=config)
        assert report.files_checked == 2
        assert [f.path for f in report.findings] == [
            "src/repro/tensor/a.py", "src/repro/tensor/b.py"]

    def test_repo_source_tree_is_clean(self):
        # The PR-head acceptance gate: `repro lint` over src/repro with
        # the committed pyproject config reports nothing.
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        report = lint_paths([root / "src" / "repro"], root=root)
        assert report.ok, "\n" + report.format_text()
        assert report.files_checked > 100


class TestThreadDiscipline:
    def test_thread_without_daemon_is_flagged(self, tmp_path):
        report = _lint_source(tmp_path, """
            import threading
            t = threading.Thread(target=print, name="t")
        """, rel="src/repro/serve/mod.py")
        assert [f.rule for f in report.findings] == ["thread-discipline"]

    def test_from_import_thread_is_flagged(self, tmp_path):
        report = _lint_source(tmp_path, """
            from threading import Thread
            t = Thread(target=print, name="t")
        """, rel="src/repro/serve/mod.py")
        assert [f.rule for f in report.findings] == ["thread-discipline"]

    def test_create_thread_without_daemon_is_flagged(self, tmp_path):
        report = _lint_source(tmp_path, """
            from repro.inspect import sanitizer
            t = sanitizer.create_thread(target=print, name="t")
        """, rel="src/repro/serve/mod.py")
        assert [f.rule for f in report.findings] == ["thread-discipline"]

    def test_explicit_daemon_passes(self, tmp_path):
        report = _lint_source(tmp_path, """
            import threading
            t = threading.Thread(target=print, name="t", daemon=True)
        """, rel="src/repro/serve/mod.py")
        assert report.ok

    def test_unbounded_join_is_flagged(self, tmp_path):
        report = _lint_source(tmp_path, """
            import threading
            t = threading.Thread(target=print, name="t", daemon=True)
            t.join()
        """, rel="src/repro/serve/mod.py")
        assert [f.rule for f in report.findings] == ["thread-discipline"]
        assert "join" in report.findings[0].message

    def test_bounded_join_passes(self, tmp_path):
        report = _lint_source(tmp_path, """
            import threading
            t = threading.Thread(target=print, name="t", daemon=True)
            t.join(timeout=5.0)
        """, rel="src/repro/serve/mod.py")
        assert report.ok

    def test_str_join_with_argument_is_not_flagged(self, tmp_path):
        report = _lint_source(tmp_path, """
            text = ", ".join(["a", "b"])
        """, rel="src/repro/serve/mod.py")
        assert report.ok
