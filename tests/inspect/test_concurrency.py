"""Whole-program lock-discipline pass: rules, config, repo-clean gate.

Each rule is demonstrated by a seeded-bug fixture (the checker flags
it) and a fixed twin (the checker accepts it) — the static half of the
ISSUE's fails-without / passes-with contract.
"""

import textwrap

from repro.inspect import LintConfig, check_concurrency


def _check_source(tmp_path, source, rel="src/repro/serve/mod.py",
                  config=None, extra=None):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    paths = [path]
    for other_rel, other_source in (extra or {}).items():
        other = tmp_path / other_rel
        other.parent.mkdir(parents=True, exist_ok=True)
        other.write_text(textwrap.dedent(other_source))
        paths.append(other)
    if config is None:
        config = LintConfig(disabled=frozenset({"gradcheck-coverage"}))
    return check_concurrency(paths, root=tmp_path, config=config)


class TestLockOrder:
    def test_direct_inversion_is_flagged(self, tmp_path):
        report = _check_source(tmp_path, """
            import threading

            class Pair:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def forward(self):
                    with self._a:
                        with self._b:
                            pass

                def backward(self):
                    with self._b:
                        with self._a:
                            pass
        """)
        rules = [f.rule for f in report.findings]
        assert rules == ["lock-order"], report.format_text()
        assert "cycle" in report.findings[0].message
        assert "Pair._a" in report.findings[0].message
        assert "Pair._b" in report.findings[0].message

    def test_consistent_order_passes(self, tmp_path):
        report = _check_source(tmp_path, """
            import threading

            class Pair:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def forward(self):
                    with self._a:
                        with self._b:
                            pass

                def also_forward(self):
                    with self._a:
                        with self._b:
                            pass
        """)
        assert report.ok, report.format_text()
        assert report.order_edges == 1

    def test_interprocedural_cycle_through_helper_call(self, tmp_path):
        # forward holds _a and calls a helper that takes _b; backward
        # holds _b and calls a helper that takes _a.  No single method
        # shows the cycle — only the acquisition closure does.
        report = _check_source(tmp_path, """
            import threading

            class Pair:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def take_b(self):
                    with self._b:
                        pass

                def take_a(self):
                    with self._a:
                        pass

                def forward(self):
                    with self._a:
                        self.take_b()

                def backward(self):
                    with self._b:
                        self.take_a()
        """)
        rules = [f.rule for f in report.findings]
        assert "lock-order" in rules, report.format_text()

    def test_cross_class_cycle_via_attribute_call(self, tmp_path):
        report = _check_source(tmp_path, """
            import threading

            class Inner:
                def __init__(self, outer: "Outer"):
                    self._ilock = threading.Lock()
                    self._outer = outer

                def poke(self):
                    with self._ilock:
                        pass

                def callback(self):
                    with self._ilock:
                        self._outer.notify()

            class Outer:
                def __init__(self):
                    self._olock = threading.Lock()
                    self._inner = Inner(self)

                def notify(self):
                    with self._olock:
                        pass

                def drive(self):
                    with self._olock:
                        self._inner.poke()
        """)
        rules = [f.rule for f in report.findings]
        assert "lock-order" in rules, report.format_text()
        assert "Outer._olock" in report.findings[0].message
        assert "Inner._ilock" in report.findings[0].message

    def test_self_deadlock_on_plain_lock(self, tmp_path):
        report = _check_source(tmp_path, """
            import threading

            class Bad:
                def __init__(self):
                    self._lock = threading.Lock()

                def helper(self):
                    with self._lock:
                        pass

                def outer(self):
                    with self._lock:
                        self.helper()
        """)
        rules = [f.rule for f in report.findings]
        assert rules == ["lock-order"], report.format_text()
        assert "self-deadlock" in report.findings[0].message

    def test_reentrant_rlock_is_not_a_self_deadlock(self, tmp_path):
        report = _check_source(tmp_path, """
            import threading

            class Fine:
                def __init__(self):
                    self._lock = threading.RLock()

                def helper(self):
                    with self._lock:
                        pass

                def outer(self):
                    with self._lock:
                        self.helper()
        """)
        assert report.ok, report.format_text()


class TestGuardedField:
    SEEDED = """
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self._count = 0

            def bump(self):
                with self._lock:
                    self._count += 1

            def reset(self):
                self._count = 0{suffix}
    """

    def test_unlocked_write_is_flagged(self, tmp_path):
        report = _check_source(
            tmp_path, self.SEEDED.format(suffix=""))
        rules = sorted(f.rule for f in report.findings)
        assert rules == ["guarded-field"], report.format_text()
        assert "Counter._count" in report.findings[0].message
        assert "Counter.reset()" in report.findings[0].message

    def test_taking_the_lock_fixes_it(self, tmp_path):
        report = _check_source(tmp_path, """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0

                def bump(self):
                    with self._lock:
                        self._count += 1

                def reset(self):
                    with self._lock:
                        self._count = 0
        """)
        assert report.ok, report.format_text()

    def test_inline_suppression(self, tmp_path):
        report = _check_source(
            tmp_path,
            self.SEEDED.format(suffix="  # lint: ignore[guarded-field]"))
        assert report.ok, report.format_text()

    def test_guard_map_declares_lock_free_fast_path(self, tmp_path):
        config = LintConfig(
            disabled=frozenset({"gradcheck-coverage"}),
            guard_map={"Counter._count": "lock-free"})
        report = _check_source(
            tmp_path, self.SEEDED.format(suffix=""), config=config)
        assert report.ok, report.format_text()

    def test_lifecycle_methods_are_exempt(self, tmp_path):
        report = _check_source(tmp_path, """
            import threading

            class Pool:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._ready = False

                def start(self):
                    self._ready = True

                def poke(self):
                    with self._lock:
                        if self._ready:
                            self._ready = False
        """)
        assert report.ok, report.format_text()

    def test_private_helper_inherits_callsite_context(self, tmp_path):
        # _drain is only called with the lock held, so its accesses
        # count as locked even though it takes no lock itself.
        report = _check_source(tmp_path, """
            import threading

            class Pool:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []

                def flush(self):
                    with self._lock:
                        self._drain()

                def clear(self):
                    with self._lock:
                        self._items = []
                        self._drain()

                def _drain(self):
                    while self._items:
                        self._items.pop()
        """)
        assert report.ok, report.format_text()

    def test_unguarded_fields_without_lock_evidence_stay_quiet(
            self, tmp_path):
        # A field never accessed under any lock has no inferable guard.
        report = _check_source(tmp_path, """
            import threading

            class Loose:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._note = None

                def set_note(self, note):
                    self._note = note

                def get_note(self):
                    return self._note
        """)
        assert report.ok, report.format_text()

    def test_sanitizer_factory_locks_are_recognised(self, tmp_path):
        report = _check_source(tmp_path, """
            from repro.inspect import sanitizer

            class Counter:
                def __init__(self):
                    self._lock = sanitizer.create_lock("Counter._lock")
                    self._count = 0

                def bump(self):
                    with self._lock:
                        self._count += 1

                def reset(self):
                    self._count = 0
        """)
        rules = [f.rule for f in report.findings]
        assert rules == ["guarded-field"], report.format_text()


class TestForkSafety:
    def test_fork_while_holding_lock_is_flagged(self, tmp_path):
        report = _check_source(tmp_path, """
            import os
            import threading

            class Spawner:
                def __init__(self):
                    self._lock = threading.Lock()

                def spawn(self):
                    with self._lock:
                        pid = os.fork()
                        return pid
        """)
        rules = [f.rule for f in report.findings]
        assert rules == ["fork-safety"], report.format_text()
        assert "os.fork()" in report.findings[0].message

    def test_fork_outside_lock_passes(self, tmp_path):
        report = _check_source(tmp_path, """
            import os
            import threading

            class Spawner:
                def __init__(self):
                    self._lock = threading.Lock()

                def spawn(self):
                    with self._lock:
                        pass
                    return os.fork()
        """)
        assert report.ok, report.format_text()

    def test_process_spawn_under_lock_via_context_is_flagged(
            self, tmp_path):
        report = _check_source(tmp_path, """
            import multiprocessing
            import threading

            class Spawner:
                def __init__(self):
                    self._lock = threading.Lock()

                def spawn(self):
                    ctx = multiprocessing.get_context("fork")
                    with self._lock:
                        proc = ctx.Process(target=print, daemon=True)
                        proc.start()
        """)
        rules = [f.rule for f in report.findings]
        assert rules == ["fork-safety"], report.format_text()

    def test_transitive_fork_through_callee_is_flagged(self, tmp_path):
        report = _check_source(tmp_path, """
            import os
            import threading

            class Spawner:
                def __init__(self):
                    self._lock = threading.Lock()

                def do_fork(self):
                    return os.fork()

                def spawn(self):
                    with self._lock:
                        return self.do_fork()
        """)
        rules = [f.rule for f in report.findings]
        assert rules == ["fork-safety"], report.format_text()
        assert "Spawner.do_fork" in report.findings[0].message

    def test_replica_scale_up_under_the_dispatch_lock_is_flagged(
            self, tmp_path):
        # The pool's dispatch lock and the fork it reaches through
        # WorkerSet.scale_to live in different modules; the checker must
        # still connect them.  Run it over copies of the real modules,
        # as committed and with the scale-up moved under the lock.
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        pool = (root / "src/repro/serve/pool.py").read_text()
        workers = {"src/repro/parallel/workers.py":
                   (root / "src/repro/parallel/workers.py").read_text()}
        call = "        return self._workers.scale_to(replicas)\n"
        assert pool.count(call) == 1
        locked = pool.replace(
            call, "        with self._lock:\n    " + call)

        clean = _check_source(tmp_path / "clean", pool,
                              rel="src/repro/serve/pool.py", extra=workers)
        assert clean.ok, clean.format_text()
        report = _check_source(tmp_path / "locked", locked,
                               rel="src/repro/serve/pool.py", extra=workers)
        rules = [f.rule for f in report.findings]
        assert rules == ["fork-safety"], report.format_text()
        assert "WorkerSet.scale_to" in report.findings[0].message
        assert "ReplicaPool._lock" in report.findings[0].message


class TestReportAndGate:
    def test_report_shape(self, tmp_path):
        report = _check_source(tmp_path, """
            import threading

            class Simple:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0

                def bump(self):
                    with self._lock:
                        self._n += 1
        """)
        payload = report.to_dict()
        assert payload["ok"] is True
        assert payload["classes"] == 1
        assert payload["locks"] == 1
        assert payload["findings"] == []
        assert "check-concurrency" in report.format_text()

    def test_repo_source_tree_is_clean(self):
        # The PR-head acceptance gate: `repro check-concurrency` with
        # the committed pyproject config reports nothing unsuppressed.
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        report = check_concurrency(root=root)
        assert report.ok, "\n" + report.format_text()
        assert report.locks >= 4
        assert report.files_checked >= 20
