"""AST-based codebase linter with repo-specific rules.

Rules (see ``docs/static_analysis.md`` for the catalog):

* ``dtype-policy`` — ``np.array``/``np.zeros``/``np.ones``/``np.empty``/
  ``np.full``/``np.eye`` without an explicit ``dtype=`` in compute hot
  paths.  Bare constructors default to float64 and silently break the
  float32 policy (PR 2); the rule applies only under the configured
  ``dtype-policy-paths`` prefixes so index/metadata code stays quiet.
* ``gradcheck-coverage`` — ops registered in the tensor op modules with
  no canonical gradcheck case in :mod:`repro.inspect.gradcov`.
* ``optimizer-out`` — numpy arithmetic inside optimizer ``_update``
  kernels without ``out=``: the in-place contract is what keeps the
  step allocation-free.
* ``mutable-default`` — mutable default arguments (list/dict/set
  literals or constructor calls).
* ``fork-discipline`` — direct process-forking primitives
  (``os.fork``, ``multiprocessing.Process``/``Pool``/``get_context``)
  outside :mod:`repro.parallel.workers`.  Its ``WorkerSet`` centralises
  fork lifecycle, shared-memory cleanup, and signal handling; ad-hoc
  forks elsewhere orphan children on interrupts and leak shared
  segments (``src/repro/parallel/workers.py`` is exempted via
  ``per-path-ignores``).
* ``alloc`` — numpy calls that allocate fresh arrays (constructors and
  ``out=``-capable functions called without ``out=``) under the
  configured ``alloc-paths`` prefixes.  Those modules are replay hot
  paths whose contract is zero allocations per step (PR 7's compiled
  arenas); one-time plan-build allocations are suppressed in place
  with ``# lint: ignore[alloc]``.
* ``bounded-buffer`` — ``collections.deque(...)`` constructed without
  ``maxlen=`` under the configured ``bounded-buffer-paths`` prefixes
  (the streaming runtime by default).  A stream runs forever; any
  unbounded tick/error/quarantine buffer is a slow memory leak that
  only shows up days into a deployment.  Every long-lived buffer in
  ``repro.stream`` must declare its bound at construction.
* ``thread-discipline`` — ``threading.Thread``/``create_thread`` spawns
  without an explicit ``daemon=`` and ``.join()`` calls with no bound.
  A thread whose daemon-ness is implicit inherits it from its spawner,
  and an unbounded join means one hung worker hangs CI forever; spawn
  sites must decide both explicitly (``repro.inspect.sanitizer.
  join_thread`` reports an error on timeout).

The whole-program lock-discipline rules (``lock-order``,
``guarded-field``, ``fork-safety``) live in
:mod:`repro.inspect.concurrency` and run under
``repro check-concurrency``; they share this module's config
(``concurrency-paths``, ``guard-map``) and suppression syntax.

Configuration lives in ``[tool.repro.lint]`` in ``pyproject.toml``;
individual lines can be suppressed with a ``# lint: ignore[rule]``
comment.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

try:
    import tomllib
except ImportError:  # Python 3.10: run with built-in defaults
    tomllib = None

__all__ = ["LintFinding", "LintConfig", "LintReport", "lint_paths",
           "load_config", "ALL_RULES"]

ALL_RULES = ("dtype-policy", "gradcheck-coverage", "optimizer-out",
             "mutable-default", "fork-discipline", "alloc",
             "bounded-buffer", "thread-discipline")

#: numpy constructors that allocate *new* float arrays with a float64
#: default.  ``*_like``/``asarray`` variants inherit their input dtype
#: and are deliberately not listed.
_DTYPE_POLICY_FUNCS = frozenset(
    {"array", "zeros", "ones", "empty", "full", "eye"})

#: numpy arithmetic that optimizer kernels must call with ``out=``.
_OUT_REQUIRED_FUNCS = frozenset(
    {"add", "subtract", "multiply", "divide", "true_divide", "sqrt",
     "square", "power", "abs", "absolute", "maximum", "minimum", "exp",
     "log", "negative", "clip"})

#: Process-creating entry points of :mod:`multiprocessing` that the
#: fork-discipline rule flags outside ``repro.parallel``.
_FORK_FUNCS = frozenset({"Process", "Pool", "get_context"})

#: numpy calls that allocate a fresh array unless ``out=`` is given:
#: pure constructors (which never take ``out=``) plus the
#: ``out=``-capable functions a replay kernel must call in place.
#: ``asarray``/``copyto``/views are deliberately absent — they don't
#: allocate (or allocate only on dtype mismatch).
_ALLOC_FUNCS = frozenset(
    {"empty", "zeros", "ones", "full", "empty_like", "zeros_like",
     "ones_like", "full_like", "array", "arange", "eye", "copy",
     "concatenate", "stack", "matmul", "where", "mean", "sum"}
    | _OUT_REQUIRED_FUNCS)

#: Long-running stream modules where every deque must be bounded.
_DEFAULT_BOUNDED_BUFFER_PATHS = ("src/repro/stream",)

#: Modules whose lock/thread/fork discipline the whole-program
#: concurrency pass (repro.inspect.concurrency) analyzes by default:
#: everything that spawns threads, forks replicas, or shares state
#: across them.
_DEFAULT_CONCURRENCY_PATHS = (
    "src/repro/serve", "src/repro/parallel", "src/repro/stream",
    "src/repro/training",
)

_DEFAULT_DTYPE_POLICY_PATHS = (
    "src/repro/tensor", "src/repro/nn", "src/repro/core",
    "src/repro/baselines", "src/repro/optim", "src/repro/training",
    "src/repro/experiments", "src/repro/inspect",
)


@dataclass
class LintFinding:
    """One lint violation at a source location."""

    rule: str
    path: str
    line: int
    message: str

    def to_dict(self):
        return {"rule": self.rule, "path": self.path, "line": self.line,
                "message": self.message}

    def __str__(self):
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


@dataclass
class LintConfig:
    """Rule enable/disable state and per-path scoping."""

    disabled: frozenset = frozenset()
    dtype_policy_paths: tuple = _DEFAULT_DTYPE_POLICY_PATHS
    # Zero-allocation hot paths for the ``alloc`` rule; opt-in (empty
    # by default) because most code is allowed to allocate freely.
    alloc_paths: tuple = ()
    # Forever-running modules where every deque must declare maxlen=.
    bounded_buffer_paths: tuple = _DEFAULT_BOUNDED_BUFFER_PATHS
    # Modules the whole-program lock-discipline pass analyzes.
    concurrency_paths: tuple = _DEFAULT_CONCURRENCY_PATHS
    # "Class.field" -> "lock-free" declarations: intentional unguarded
    # fast paths the guarded-field rule must not flag (e.g. the serving
    # generation counter read by telemetry without the forward lock).
    guard_map: dict = None
    per_path_ignores: dict = None

    def __post_init__(self):
        if self.per_path_ignores is None:
            self.per_path_ignores = {}
        if self.guard_map is None:
            self.guard_map = {}

    def rule_applies(self, rule, rel_path):
        if rule in self.disabled:
            return False
        for prefix, rules in self.per_path_ignores.items():
            if rel_path.startswith(prefix) and rule in rules:
                return False
        if rule == "dtype-policy":
            return any(rel_path.startswith(p)
                       for p in self.dtype_policy_paths)
        if rule == "alloc":
            return any(rel_path.startswith(p) for p in self.alloc_paths)
        if rule == "bounded-buffer":
            return any(rel_path.startswith(p)
                       for p in self.bounded_buffer_paths)
        return True


def load_config(root):
    """Read ``[tool.repro.lint]`` from ``<root>/pyproject.toml``."""
    pyproject = Path(root) / "pyproject.toml"
    if tomllib is None or not pyproject.is_file():
        return LintConfig()
    with open(pyproject, "rb") as handle:
        data = tomllib.load(handle)
    table = data.get("tool", {}).get("repro", {}).get("lint", {})
    from .concurrency import CONCURRENCY_RULES

    known = set(ALL_RULES) | set(CONCURRENCY_RULES)
    unknown = set(table.get("disable", ())) - known
    if unknown:
        raise ValueError(
            f"[tool.repro.lint] disables unknown rules: {sorted(unknown)}")
    guard_map = dict(table.get("guard-map", {}))
    bad = {field: why for field, why in guard_map.items()
           if why != "lock-free"}
    if bad:
        raise ValueError(
            "[tool.repro.lint.guard-map] entries must declare 'lock-free' "
            f"(the only supported policy); got: {bad}")
    return LintConfig(
        disabled=frozenset(table.get("disable", ())),
        dtype_policy_paths=tuple(
            table.get("dtype-policy-paths", _DEFAULT_DTYPE_POLICY_PATHS)),
        alloc_paths=tuple(table.get("alloc-paths", ())),
        bounded_buffer_paths=tuple(
            table.get("bounded-buffer-paths", _DEFAULT_BOUNDED_BUFFER_PATHS)),
        concurrency_paths=tuple(
            table.get("concurrency-paths", _DEFAULT_CONCURRENCY_PATHS)),
        guard_map=guard_map,
        per_path_ignores={
            prefix: frozenset(rules)
            for prefix, rules in table.get("per-path-ignores", {}).items()},
    )


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: list
    files_checked: int

    @property
    def ok(self):
        return not self.findings

    def to_dict(self):
        return {"ok": self.ok, "files_checked": self.files_checked,
                "findings": [f.to_dict() for f in self.findings]}

    def format_text(self):
        lines = [str(f) for f in self.findings]
        lines.append(f"lint: {self.files_checked} files, "
                     f"{len(self.findings)} finding(s)")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Per-file AST rules
# ----------------------------------------------------------------------
def _np_attr(node):
    """Return ``'zeros'`` for a ``np.zeros``/``numpy.zeros`` call node."""
    func = node.func
    if (isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in ("np", "numpy")):
        return func.attr
    return None


def _has_keyword(node, name):
    return any(kw.arg == name for kw in node.keywords)


class _FileLinter(ast.NodeVisitor):
    def __init__(self, rel_path, source_lines, config):
        self.rel_path = rel_path
        self.source_lines = source_lines
        self.config = config
        self.findings = []
        self._update_depth = 0
        # Names this file binds to multiprocessing (module aliases and
        # from-imports of process-creating entry points).
        self._mp_modules = {"multiprocessing"}
        self._mp_names = {}
        # Names this file binds to collections.deque (for the
        # bounded-buffer rule).
        self._collections_modules = {"collections"}
        self._deque_names = set()
        # Names bound to threading / the sanitizer factories (for the
        # thread-discipline rule).
        self._threading_modules = {"threading"}
        self._sanitizer_modules = {"sanitizer"}
        self._thread_ctor_names = {}

    def _suppressed(self, line, rule):
        if 1 <= line <= len(self.source_lines):
            text = self.source_lines[line - 1]
            if f"lint: ignore[{rule}]" in text:
                return True
        return False

    def _emit(self, rule, node, message):
        if not self.config.rule_applies(rule, self.rel_path):
            return
        if self._suppressed(node.lineno, rule):
            return
        self.findings.append(LintFinding(
            rule=rule, path=self.rel_path, line=node.lineno,
            message=message))

    # -- fork-discipline imports ---------------------------------------
    def visit_Import(self, node):
        for alias in node.names:
            if alias.name.split(".")[0] == "multiprocessing":
                self._mp_modules.add(alias.asname or alias.name)
            if alias.name == "collections":
                self._collections_modules.add(alias.asname or alias.name)
            if alias.name == "threading":
                self._threading_modules.add(alias.asname or alias.name)
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        if node.module and node.module.split(".")[0] == "multiprocessing":
            for alias in node.names:
                if alias.name in _FORK_FUNCS:
                    self._mp_names[alias.asname or alias.name] = alias.name
        if node.module == "collections":
            for alias in node.names:
                if alias.name == "deque":
                    self._deque_names.add(alias.asname or alias.name)
        if node.module == "threading":
            for alias in node.names:
                if alias.name == "Thread":
                    self._thread_ctor_names[alias.asname or alias.name] = \
                        "threading.Thread"
        if node.module and node.module.endswith("sanitizer"):
            for alias in node.names:
                if alias.name == "create_thread":
                    self._thread_ctor_names[alias.asname or alias.name] = \
                        "sanitizer.create_thread"
        if node.module == "repro.inspect":
            for alias in node.names:
                if alias.name == "sanitizer":
                    self._sanitizer_modules.add(alias.asname or alias.name)
        self.generic_visit(node)

    def _check_fork_discipline(self, node):
        func = node.func
        origin = None
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            if func.value.id == "os" and func.attr == "fork":
                origin = "os.fork"
            elif (func.value.id in self._mp_modules
                    and func.attr in _FORK_FUNCS):
                origin = f"multiprocessing.{func.attr}"
        elif isinstance(func, ast.Name) and func.id in self._mp_names:
            origin = f"multiprocessing.{self._mp_names[func.id]}"
        if origin is not None:
            self._emit(
                "fork-discipline", node,
                f"direct {origin} call outside repro.parallel.workers; "
                "fork through repro.parallel.WorkerSet so worker "
                "lifecycle, shared-memory cleanup, and signal handling "
                "stay centralised")

    # -- bounded-buffer ------------------------------------------------
    def _check_bounded_buffer(self, node):
        func = node.func
        is_deque = (isinstance(func, ast.Name)
                    and func.id in self._deque_names)
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in self._collections_modules
                and func.attr == "deque"):
            is_deque = True
        if is_deque and not _has_keyword(node, "maxlen"):
            # A positional maxlen (second arg) also satisfies the bound.
            if len(node.args) >= 2:
                return
            self._emit(
                "bounded-buffer", node,
                "deque without maxlen= in a forever-running stream "
                "module; an unbounded tick/error buffer grows without "
                "limit on a live stream — declare the retention bound "
                "at construction (deque(maxlen=...))")

    # -- thread-discipline ---------------------------------------------
    def _check_thread_discipline(self, node):
        func = node.func
        ctor = None
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            if (func.value.id in self._threading_modules
                    and func.attr == "Thread"):
                ctor = "threading.Thread"
            elif (func.value.id in self._sanitizer_modules
                    and func.attr == "create_thread"):
                ctor = "sanitizer.create_thread"
        elif isinstance(func, ast.Name) and func.id in self._thread_ctor_names:
            ctor = self._thread_ctor_names[func.id]
        if ctor is not None and not _has_keyword(node, "daemon"):
            self._emit(
                "thread-discipline", node,
                f"{ctor}(...) without an explicit daemon=; implicit "
                "daemon-ness is inherited from the spawning thread — "
                "decide it at the spawn site")
        if (isinstance(func, ast.Attribute) and func.attr == "join"
                and not node.args and not node.keywords):
            self._emit(
                "thread-discipline", node,
                "unbounded .join(); one hung worker hangs the caller "
                "forever — use join(timeout=...) (or "
                "repro.inspect.sanitizer.join_thread, which reports an "
                "error on timeout)")

    # -- dtype-policy / optimizer-out ----------------------------------
    def visit_Call(self, node):
        self._check_fork_discipline(node)
        self._check_bounded_buffer(node)
        self._check_thread_discipline(node)
        attr = _np_attr(node)
        if attr in _DTYPE_POLICY_FUNCS and not _has_keyword(node, "dtype"):
            self._emit(
                "dtype-policy", node,
                f"np.{attr} without an explicit dtype defaults to float64; "
                "pass dtype=... (policy-aware: repro.tensor."
                "get_default_dtype()) or an input-derived dtype")
        if (self._update_depth > 0 and attr in _OUT_REQUIRED_FUNCS
                and not _has_keyword(node, "out")):
            self._emit(
                "optimizer-out", node,
                f"np.{attr} inside an optimizer _update kernel allocates a "
                "fresh array; pass out=... to keep the step in-place")
        if attr in _ALLOC_FUNCS and not _has_keyword(node, "out"):
            self._emit(
                "alloc", node,
                f"np.{attr} allocates a fresh array in a zero-allocation "
                "hot path; write into a preallocated buffer (out=, "
                "np.copyto, a ScratchPool slot) or mark a deliberate "
                "plan-build allocation with # lint: ignore[alloc]")
        self.generic_visit(node)

    # -- mutable-default ----------------------------------------------
    def _check_defaults(self, node):
        args = node.args
        for default in list(args.defaults) + list(args.kw_defaults):
            if default is None:
                continue
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set))
            if (isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in ("list", "dict", "set")):
                mutable = True
            if mutable:
                self._emit(
                    "mutable-default", default,
                    f"mutable default argument in {node.name}(); defaults "
                    "are shared across calls — use None and create the "
                    "object inside the function")

    def visit_FunctionDef(self, node):
        self._check_defaults(node)
        if node.name == "_update":
            self._update_depth += 1
            self.generic_visit(node)
            self._update_depth -= 1
        else:
            self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node):
        self._check_defaults(node)
        self.generic_visit(node)


def _lint_file(path, root, config):
    resolved = Path(path).resolve()
    try:
        rel_path = str(resolved.relative_to(Path(root).resolve()))
    except ValueError:
        # Outside the root: keep the absolute path.  Path-scoped rules
        # (dtype-policy, per-path-ignores) simply won't match it.
        rel_path = str(resolved)
    source = Path(path).read_text()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [LintFinding(rule="parse-error", path=rel_path,
                            line=exc.lineno or 0, message=str(exc.msg))]
    linter = _FileLinter(rel_path, source.splitlines(), config)
    linter.visit(tree)
    return linter.findings


def _coverage_findings(config):
    if "gradcheck-coverage" in config.disabled:
        return []
    from .gradcov import registered_ops, uncovered_ops

    registry = registered_ops()
    return [
        LintFinding(
            rule="gradcheck-coverage",
            path=registry[name].replace(".", "/") + ".py",
            line=0,
            message=(f"op '{name}' has no gradcheck case in "
                     "repro.inspect.gradcov; add one so its gradient is "
                     "verified in CI"))
        for name in uncovered_ops()
    ]


def lint_paths(paths, root, config=None):
    """Lint every ``.py`` file under ``paths``; returns a LintReport.

    ``root`` anchors relative paths in findings and config prefixes.
    """
    config = config if config is not None else load_config(root)
    files = []
    for path in paths:
        path = Path(path)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    findings = []
    for path in files:
        findings.extend(_lint_file(path, root, config))
    findings.extend(_coverage_findings(config))
    findings.sort(key=lambda f: (f.path, f.line))
    return LintReport(findings=findings, files_checked=len(files))
