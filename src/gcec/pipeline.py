"""End-to-end enumeration pipeline with JSON persistence and reports.

One *instance* is a triple (D1, D2, Omega): input/output representations of
equal dimension plus a channel-labeling irrep.  The sweep walks instances
in deterministic order (Omega outermost in catalog order, then D1, then D2
in enumeration order), decides whether each has a covariant channel,
solves and classifies those that do, and collects everything into a
manifest whose JSON form is byte-identical across runs with equal inputs
and an equal BLAS thread count (a multithreaded BLAS rounds its reductions
differently, which reaches the stored digits of some Lie-group sweeps, such
as SO3 d=9).

Statuses are decided by counting.  A catalog representation's parts are
irreps, so every Schur block of the sweep is an irrep triple (row irrep p,
column irrep q, Omega).  The sweep fills one table N_Omega[p, q] of block
kernel dimensions per Omega, all in one request
(:func:`gcec.kernels.kernel_dims`, through the sweep's block cache), and
with a and b the irrep multiplicities of the representations on the rows
and on the columns of each A_k:

- n_params = a^T N_Omega b, and an instance with none is ``no_cp_map``;
- trace preservation is solved in closed form (:mod:`gcec.tp`), and a TP
  point exists exactly when every input irrep rho has b_rho <=
  (a^T N_Omega)_rho (:func:`gcec.tp.has_tp_point`); an instance without
  one is ``no_tp_solution``.

Those records are written from the counts alone.  Only an instance with a
TP point builds its covariance system, its kernel and its TP solve, and
the table's counts are checked there: a family of another size, or a solve
that finds no TP point, is an ``error``.  A record is ``solver_failed``
only when the package raised an error on the instance (recorded in
``error``).

For finite groups the instances with a TP point fall into label classes
(:mod:`gcec.classes`): twisting by 1-dimensional characters, complex
conjugation and group automorphisms map an instance to an equivalent one,
with equal counts.  Only the least instance of each class in sweep order,
its representative, is solved; a Lie-group instance is a class of its own.
The sweep files each such instance under its representative, then builds
the records class by class, in the order it first meets them, through one
routine: solve the representative once, move its (S, K, d, d) sample
stack to every other member by intertwiners, run one rank test over the
representative's stack and every moved stack, and fill each record through
:func:`_found`, which checks every emitted sample the same way (trace
preservation, and a covariance residual against the record's own
representations of at most ``TOL_COV``).  Every member takes the
representative's status, error and moduli constraints.  A failed solve, or
a failed check of the representative's own samples, fails the whole class;
a member whose transport or re-check fails is an ``error`` on its own.

Checks run on stacks of same-shape Kraus sets: a record's samples get one
batched covariance residual and share a batched rank test with their
class, and :func:`classify_file` parses every entry of a file first and
then checks the sets of each (K, d) shape as one stack (least Choi
eigenvalue, off the K x K Gram matrix when K < d^2; TP residual; rank
test).  Each set's values are those of a loop over the sets, so the
manifests do not depend on the batching.  A set is trace
preserving when its TP residual is at most ``extremality.TOL_TP``.  A
manifest's ``tolerances`` records the thresholds applied: that bound, the
kernel threshold ``kernels.TOL_KERNEL`` and the run's ``tol_rank``
(``TOL_COV`` is applied too, but schema v1 has no key for it).

A manifest's JSON text (:func:`manifest_to_json`, which ``save_manifest``
and ``report(m, "json")`` write) is one ``json.dumps`` call with sorted
keys and no whitespace, ``separators=(",", ":")``, plus a newline, so the
standard library's C encoder writes all of it.  Each Kraus sample stays a
(K, d, d, 2) float array in the fields, and the call's ``default`` hook
turns one array at a time into nested lists.  The reader takes any JSON
layout, so manifests in the ``indent=2`` layout of earlier releases load
alike.  The readers pause the cyclic garbage collector until the parsed
tree, which has no reference cycles, is freed: a running collector would
rescan it as it grows.  They convert the Kraus sets of each declared
(K, d) in one ``kraus_from_dict`` call, each with its bytes or error alone.
"""

from __future__ import annotations

import gc
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .channels import (
    KRAUS_SCHEMA_VERSION,
    KrausSet,
    choi,
    kraus_fields,
    kraus_from_dict,
)
from .classes import LabelClasses
from .errors import BadSeed, GcecError, SchemaError, NotTracePreserving, UnknownGroup, UnknownIrrepIndex
from .extremality import DEFAULT_TOL_RANK, TOL_TP, check_tol_rank, finite_batch, test_extreme
from .groups import infer_kind, irrep_label, props
from .kernels import (
    TOL_KERNEL,
    build_discrete_system,
    build_lie_system,
    covariance_residual,
    joint_nullspace,
    kernel_dims,
    rows_cols,
)
from .reps import Rep, RepLabel, enumerate_reps, make_rep_label, materialize, omega_candidates
from .tp import has_tp_point, solve_tp

MANIFEST_SCHEMA_VERSION = 1
TOL_COV = 1e-8  # largest covariance residual of an emitted sample
STATUSES = ("no_cp_map", "no_tp_solution", "solver_failed", "error", "channel_found")
CLASSIFICATIONS = ("not_applicable", "unitary", "extreme", "quasi_extreme")


@dataclass
class ChannelRecord:
    """An instance (D1, D2, Omega) and what the sweep found for it; its group
    and d are its manifest's, which its JSON fields repeat."""

    d1_label: RepLabel
    d2_label: RepLabel
    omega_index: int
    omega_label: str
    n_params: int
    status: str  # one of STATUSES
    kraus_samples: list[KrausSet] = field(default_factory=list)
    moduli_constraints: list[str] = field(default_factory=list)
    classification: str = "not_applicable"  # one of CLASSIFICATIONS
    residuals: dict = field(default_factory=dict)
    error: str | None = None


@dataclass
class RunManifest:
    """A sweep's settings and records; its counts are read off the records."""

    group: str
    kind: str
    d: int
    tolerances: dict
    seed: int
    options: dict
    records: list[ChannelRecord] = field(default_factory=list)

    @property
    def total_instances(self) -> int:
        return len(self.records)

    @property
    def count_found(self) -> int:
        return sum(r.status == "channel_found" for r in self.records)


def _labels_by_text(spec, d: int) -> dict[str, RepLabel]:
    """Display text -> label of every d-dimensional representation, in
    enumeration order."""
    return {lab.text: lab for lab in enumerate_reps(spec, d)}


def run_enumeration(
    group: str,
    kind: str | None,
    d: int,
    *,
    tol_rank: float = DEFAULT_TOL_RANK,
    seed: int = 0,
    nonunitary_only: bool = False,
    reps: list[str] | None = None,
) -> RunManifest:
    """Construct and classify every covariant channel family for the group.

    ``reps`` optionally restricts the sweep to representations with the
    given display texts (a sub-sweep; totals then count the restriction);
    an empty list, like an unknown text, raises ``UnknownGroup``.
    ``nonunitary_only`` drops 1-dimensional channel labels, whose channels
    are plain unitaries.  ``seed`` seeds each solved instance's TP samples,
    together with the instance's labels.  ``tol_rank`` is the rank test's
    tolerance; the kernel and TP tolerances are constants (module
    docstring).  Before any instance is visited, ``tol_rank`` is checked to
    lie in (0, 1) and ``seed`` to be a non-negative integer (what
    ``np.random.default_rng`` takes and a manifest stores), else
    ``BadTolerance`` or ``BadSeed`` is raised.

    For a finite group only one representative per label class is solved
    (see the module docstring), with the seed of its own labels and even
    when ``reps`` leaves it out, so a sub-sweep reproduces the full sweep's
    records for the instances it shares.  A member whose moved samples fail
    their re-check gets status ``error`` (:func:`_class_records`).
    """
    check_tol_rank(tol_rank)
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise BadSeed(f"seed must be a non-negative integer, got {seed!r}")
    seed = int(seed)  # a numpy integer too is written as a JSON integer
    if kind is None:
        kind = infer_kind(group)
    payload = props(group, kind, d)
    spec = payload.group
    by_text = _labels_by_text(spec, d)
    labels = list(by_text.values())
    if reps is not None:
        if not reps:
            raise UnknownGroup(f"no {group} representation named at d={d}; available: {sorted(by_text)}")
        missing = [t for t in reps if t not in by_text]
        if missing:
            raise UnknownGroup(
                f"no {group} representation(s) labelled {missing} at d={d}; "
                f"available: {sorted(by_text)}"
            )
        labels = sorted({by_text[t] for t in reps}, key=lambda lab: lab.parts)
    omegas = omega_candidates(spec, d)
    if nonunitary_only:
        omegas = [om for om in omegas if om.dim >= 2]

    rep_cache = {lab.parts: materialize(spec, lab) for lab in labels}
    block_cache: dict = {}  # Schur-block kernels shared by this sweep's instances
    classes = LabelClasses(spec) if kind == "discrete" else None
    counts = _counts(kind, [rep_cache[lab.parts] for lab in labels], omegas, block_cache)

    def rep_of(parts) -> Rep:
        if parts not in rep_cache:  # a representative outside a --reps sub-sweep
            rep_cache[parts] = materialize(spec, make_rep_label(spec, parts))
        return rep_cache[parts]

    records: list = [None] * len(omegas) * len(labels) ** 2
    filed: dict = {}  # representative -> (n_params, [(position, (rep1, rep2, omega, move)) of each member])
    instances = product(omegas, enumerate(labels), enumerate(labels))
    for at, (omega, (i, lab1), (j, lab2)) in enumerate(instances):
        table_n, table_found = counts[omega.index]
        entry = rows_cols(kind, i, j)
        n_params = int(table_n[entry])
        member = (rep_cache[lab1.parts], rep_cache[lab2.parts], omega)
        if not table_found[entry]:
            records[at] = _record(*member, n_params, "no_tp_solution" if n_params else "no_cp_map")
            continue
        inst = (omega.index, lab1.parts, lab2.parts)
        head, move = (inst, None) if classes is None else classes.representative(inst)
        filed.setdefault(head, (n_params, []))[1].append((at, (*member, move)))
    for head, (n_params, of_class) in filed.items():  # in the order the sweep first meets each class
        om, parts1, parts2 = head
        positions, members = zip(*of_class)
        head_reps = (rep_of(parts1), rep_of(parts2), spec.irrep_by_index(om))
        # Seed keyed by the instance labels (not the loop position): a filtered
        # sub-sweep then reproduces the full sweep's records for the instances
        # it shares.
        head_seed = [seed, om, *parts1, 0xFFFFFFFF, *parts2]
        solved = _class_records(kind, head, head_reps, members, classes, tol_rank, head_seed, block_cache, n_params)
        for at, record in zip(positions, solved):
            records[at] = record

    return RunManifest(
        group=group,
        kind=kind,
        d=d,
        tolerances={"kernel": TOL_KERNEL, "tp": TOL_TP, "rank": tol_rank},
        seed=seed,
        options={
            "nonunitary_only": nonunitary_only,
            "reps": None if reps is None else [lab.text for lab in labels],
        },
        records=records,
    )


def _counts(kind, reps, omegas, cache) -> dict:
    """Omega index -> (n_params, whether a TP point exists) of every
    instance, each an array indexed [row, column] by positions in ``reps``
    (:func:`gcec.kernels.rows_cols`), read off one table of Schur-block
    kernel dimensions per Omega through ``cache`` (module docstring)."""
    parts: dict = {}  # irrep index -> its part, as the representations split it
    for rep in reps:
        parts.update(zip(rep.label.parts, rep.split, strict=True))
    column = {p: i for i, p in enumerate(parts)}
    mult = np.zeros((len(reps), len(parts)), dtype=int)  # irrep multiplicities of each representation
    for i, rep in enumerate(reps):
        for p in rep.label.parts:
            mult[i, column[p]] += 1
    out = {}
    for omega, table in zip(omegas, kernel_dims(kind, tuple(parts.values()), omegas, cache)):
        over_rows = mult @ table  # a^T N of each row representation
        out[omega.index] = (over_rows @ mult.T, has_tp_point(over_rows[:, None], mult[None]))
    return out


def _record(rep1, rep2, omega, n_params, status) -> ChannelRecord:
    """A record of the instance (rep1, rep2, omega) with no samples."""
    return ChannelRecord(
        d1_label=rep1.label,
        d2_label=rep2.label,
        omega_index=omega.index,
        omega_label=omega.label,
        n_params=n_params,
        status=status,
    )


def _class_records(kind, head, reps, members, classes, tol_rank, seed, block_cache, n_params) -> list[ChannelRecord]:
    """The records of the ``members`` (rep1, rep2, omega, move) of the class
    of ``head``, whose representations are ``reps``, from one solve of it.

    The sweep's table counts ``n_params`` parameters and a TP point for
    every member; a family of another size, or a solve that finds no TP
    point, makes the class ``error``.  The move is None for the
    representative itself.  Its sample stack moves to every other member,
    and one rank test checks its own samples and every moved stack.  When
    the solve or the representative's own samples fail, the whole class
    fails: ``solver_failed`` for a package or LAPACK error, ``error`` for
    anything else.  Every member takes the representative's status, error
    and moduli constraints (in the representative's coordinates); a member
    whose transport fails, or whose moved samples fail :func:`_found`,
    becomes an ``error`` on its own: it is never re-solved."""
    rep1, rep2, omega = reps
    source = _record(rep1, rep2, omega, n_params, "error")  # every path below sets the status
    records = [source if move is None else _record(*member, n_params, "error") for *member, move in members]
    stack = None  # the representative's samples
    moved = {}  # member index -> its moved samples, or the exception its transport raised
    try:
        system = build_discrete_system(rep1, rep2, omega) if kind == "discrete" else build_lie_system(rep1, rep2, omega)
        family = joint_nullspace(system, cache=block_cache)
        if family.n_params != n_params:
            raise RuntimeError(f"the family has {family.n_params} parameters, the block table counts {n_params}")
        report = solve_tp(family, seed=seed, tol_rank=tol_rank)
        if report.status == "no_solution":
            raise RuntimeError(f"no TP point ({report.detail}), where the block table counts one")
        source.moduli_constraints = list(report.moduli_constraints)
        stack = np.stack([family.kraus_at(c) for c in report.solutions])
        for i, (*_, move) in enumerate(members):
            if move is None:
                continue
            try:
                moved[i] = classes.transport(stack, head, move)
            except Exception as exc:  # never solver_failed: the representative decided existence
                moved[i] = exc
        fine = [m for m in moved.values() if not isinstance(m, Exception)]
        test = test_extreme(np.concatenate([stack, *fine]), tol_rank)
        _found(source, stack, test, 0, rep1, rep2, omega, kind)
    except (GcecError, np.linalg.LinAlgError) as exc:
        source.status, source.error = "solver_failed", f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # a crash: record it as such, never abort the sweep
        source.status, source.error = "error", f"{type(exc).__name__}: {exc}"
    first = 0 if stack is None else len(stack)  # the moved stacks follow the representative's in the test
    for i, (record, (rep1, rep2, omega, _)) in enumerate(zip(records, members)):
        if record is source:
            continue
        record.status, record.error = source.status, source.error
        record.moduli_constraints = list(source.moduli_constraints)
        if source.status != "channel_found":
            continue
        try:
            if isinstance(moved[i], Exception):
                raise moved[i]
            at, first = first, first + len(moved[i])
            _found(record, moved[i], test, at, rep1, rep2, omega, kind)
        except Exception as exc:
            record.status, record.error = "error", f"transport failed: {type(exc).__name__}: {exc}"
    return records


def _found(record, stack, test, first, rep1, rep2, omega, kind) -> None:
    """Fill a ``channel_found`` record from its (S, K, d, d) sample stack,
    sets ``first`` to ``first + S - 1`` of the stack that the rank test
    ``test`` checked, with one batched covariance residual; its TP residual
    is the largest of the samples'.  A sample that is not trace preserving,
    or whose covariance residual exceeds ``TOL_COV``, raises and leaves the
    record as it was."""
    at = slice(first, first + len(stack))
    test.check_channels(at)
    covariance = float(covariance_residual(stack, rep1, rep2, omega, kind).max())
    if not covariance <= TOL_COV:
        raise GcecError(f"covariance residual {covariance:.3e} exceeds {TOL_COV:.0e}")
    record.status = "channel_found"
    record.kraus_samples = [KrausSet(matrices) for matrices in stack]
    record.classification = _classification(stack.shape[1], test.extreme[at])
    record.residuals = {
        "covariance": covariance,
        "tp": float(test.tp_residual[at].max()),
        "rank_sigma_min": float(test.singular_values[at, -1].min()),
    }


def _classification(K: int, extreme: np.ndarray) -> str:
    """``unitary`` if K = 1, else ``extreme`` if every set of the boolean
    rank-test slice ``extreme`` passes, else ``quasi_extreme``."""
    if K == 1:
        return "unitary"
    return "extreme" if extreme.all() else "quasi_extreme"


# ---------------------------------------------------------------------------
# JSON persistence
# ---------------------------------------------------------------------------


def _record_fields(record: ChannelRecord, group: str, d: int) -> dict:
    """The JSON fields of a record of a manifest of ``group`` at dimension ``d``."""
    return {
        "group": group,
        "d": d,
        "d1_label": record.d1_label.text,
        "d2_label": record.d2_label.text,
        "omega_index": record.omega_index,
        "omega_label": record.omega_label,
        "n_params": record.n_params,
        "status": record.status,
        "kraus_samples": [kraus_fields(s) for s in record.kraus_samples],
        "moduli_constraints": list(record.moduli_constraints),
        "classification": record.classification,
        "residuals": {k: float(v) for k, v in record.residuals.items()},
        "error": record.error,
    }


def _manifest_fields(manifest: RunManifest) -> dict:
    return {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "kraus_schema_version": KRAUS_SCHEMA_VERSION,
        "group": manifest.group,
        "kind": manifest.kind,
        "d": manifest.d,
        "tolerances": {k: float(v) for k, v in manifest.tolerances.items()},
        "seed": manifest.seed,
        "options": manifest.options,
        "total_instances": manifest.total_instances,
        "count_found": manifest.count_found,
        "records": [_record_fields(r, manifest.group, manifest.d) for r in manifest.records],
    }


def manifest_to_json(manifest: RunManifest) -> str:
    """The manifest's JSON text (see the module docstring), one line."""
    fields = _manifest_fields(manifest)
    return json.dumps(fields, sort_keys=True, separators=(",", ":"), default=np.ndarray.tolist) + "\n"


def save_manifest(manifest: RunManifest, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(manifest_to_json(manifest))


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector, restoring the caller's state on exit."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _kraus_parser(items: list):
    """``kraus_from_dict`` for ``items``, converting the sets of each declared (K, d)
    in one call up front.  A set is parsed alone when that call raises or its values
    are all integers (which numpy may convert otherwise alone), and every set
    gets the bytes or the error it gets alone.  The integer guard serves numpy
    releases older than CI's ``numpy==2.4.6`` pin, where an int beyond int64 in
    a group may become a float; under the pin the group call raises first, so
    CI cannot exercise the guard."""
    done, shapes = {}, {}
    for obj in items:
        K, d, kraus = (obj.get(key) for key in ("K", "d", "kraus")) if isinstance(obj, dict) else (0, 0, None)
        if type(K) is int and type(d) is int and K >= 1 and d >= 1 and isinstance(kraus, list) and len(kraus) == K:
            shapes.setdefault((K, d), []).append(obj)
    for (K, d), group in shapes.items():
        kraus = [matrix for obj in group for matrix in obj["kraus"]]
        try:
            stack = kraus_from_dict({"d": d, "K": len(kraus), "kraus": kraus}).matrices.reshape(len(group), K, d, d)
        except SchemaError:
            continue
        integral = (np.modf(stack.view(float))[0] == 0).all(axis=(1, 2, 3))
        done.update((id(obj), KrausSet(mats)) for obj, mats, whole in zip(group, stack, integral) if not whole)
    return lambda obj: done.get(id(obj)) or kraus_from_dict(obj)


def _read_json(path):
    """Parse a JSON file; a UTF-8 or JSON decode failure raises ``SchemaError``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SchemaError(f"not valid JSON: {exc}") from None


_RESIDUAL_KEYS = ("covariance", "rank_sigma_min", "tp")


def _residuals_from(obj) -> dict:
    """A record's residuals: empty, or exactly ``_RESIDUAL_KEYS`` mapped to
    real numbers (what :func:`report` prints)."""
    if isinstance(obj, dict) and (not obj or sorted(obj) == list(_RESIDUAL_KEYS)):
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in obj.values()):
            return dict(obj)
    raise SchemaError(f"residuals must be empty or map {', '.join(_RESIDUAL_KEYS)} to real numbers, got {obj!r}")


# JSON type name -> whether a value json.load gives is of it (a bool is never a number)
_JSON_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "array of strings": lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "string or null": lambda v: v is None or isinstance(v, str),
    "array of strings or null": lambda v: v is None or (isinstance(v, list) and all(isinstance(x, str) for x in v)),
    "string naming a status": lambda v: v in STATUSES,
    "string naming a classification": lambda v: v in CLASSIFICATIONS,
}

# run_enumeration option -> the JSON type of the value it writes; n_starts and
# time_budget are no longer written, but v1 manifests that carry them load
_OPTION_TYPES = {
    "n_starts": "integer",
    "nonunitary_only": "boolean",
    "reps": "array of strings or null",
    "time_budget": "number",
}


def _typed(obj: dict, key: str, json_type: str, default=...):
    """``obj[key]`` (``default`` if given and absent), checked to be of
    ``json_type``, a key of ``_JSON_TYPES``."""
    value = obj[key] if default is ... else obj.get(key, default)
    if not _JSON_TYPES[json_type](value):
        raise SchemaError(f"{key!r} must be a JSON {json_type}, got {value!r:.60}")
    return value


def manifest_from_dict(obj) -> RunManifest:
    if not isinstance(obj, dict) or "records" not in obj:
        raise SchemaError("not a run manifest: missing 'records'")
    if obj.get("schema_version") != MANIFEST_SCHEMA_VERSION:
        raise SchemaError(
            f"unsupported manifest schema_version {obj.get('schema_version')!r}"
        )
    try:
        group, kind, d = obj["group"], obj["kind"], obj["d"]
        spec = props(group, kind, d).group
        by_text = _labels_by_text(spec, d)

        def label(text) -> RepLabel:
            if text not in by_text:
                raise SchemaError(f"unknown representation label {text!r} for {spec.name} d={d}")
            return by_text[text]

        # every record's samples, converted by shape; each raises its error in record order
        listed = [rec.get("kraus_samples") if isinstance(rec, dict) else None for rec in obj["records"]]
        parse = _kraus_parser([s for samples in listed if isinstance(samples, list) for s in samples])
        records = []
        for i, rec in enumerate(obj["records"]):
            of = (_typed(rec, "group", "string"), _typed(rec, "d", "integer"))
            if of != (group, d):
                raise SchemaError(f"record {i} is of {of[0]} d={of[1]}, its manifest of {group} d={d}")
            index, text = _typed(rec, "omega_index", "integer"), _typed(rec, "omega_label", "string")
            try:  # a catalog irrep of any dimension, as a stored set may have K > d
                if text != (want := irrep_label(group, index)):
                    raise SchemaError(f"record {i}: omega_label {text!r} is not irrep {index}'s label {want!r}")
            except UnknownIrrepIndex as exc:
                raise SchemaError(f"record {i}: {exc}") from exc
            if (n_params := _typed(rec, "n_params", "integer")) < 0:
                raise SchemaError(f"record {i}: n_params {n_params} is negative")
            records.append(
                ChannelRecord(
                    d1_label=label(rec["d1_label"]),
                    d2_label=label(rec["d2_label"]),
                    omega_index=index,
                    omega_label=text,
                    n_params=n_params,
                    status=_typed(rec, "status", "string naming a status"),
                    kraus_samples=[parse(s) for s in rec["kraus_samples"]],
                    moduli_constraints=list(_typed(rec, "moduli_constraints", "array of strings")),
                    classification=_typed(rec, "classification", "string naming a classification"),
                    residuals=_residuals_from(rec["residuals"]),
                    error=_typed(rec, "error", "string or null", None),
                )
            )
        tolerances = _typed(obj, "tolerances", "object")
        options = _typed(obj, "options", "object", {})
        for key, json_type in _OPTION_TYPES.items():
            if key in options:
                _typed(options, key, json_type)
        manifest = RunManifest(
            group=group,
            kind=kind,
            d=d,
            tolerances={key: _typed(tolerances, key, "number") for key in tolerances},
            seed=_typed(obj, "seed", "integer"),
            options=dict(options),
            records=records,
        )
        total, found = _typed(obj, "total_instances", "integer"), _typed(obj, "count_found", "integer")
        if (total, found) != (manifest.total_instances, manifest.count_found):
            raise SchemaError(
                f"manifest counts instances {total}, channels found {found}, but its records"
                f" hold {manifest.total_instances} instances, {manifest.count_found} found"
            )
        return manifest
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"malformed manifest: {exc!r}") from None


def load_manifest(path) -> RunManifest:
    with _collector_paused():  # manifest_from_dict's return frees the parsed tree
        return manifest_from_dict(_read_json(path))


# ---------------------------------------------------------------------------
# standalone classification of stored Kraus sets
# ---------------------------------------------------------------------------


def _kraus_sets_in(obj) -> list[tuple[str, dict]]:
    """Collect (location-tag, kraus-dict) pairs from any supported payload."""
    if isinstance(obj, list):
        return [(f"[{i}]", item) for i, item in enumerate(obj)]
    if isinstance(obj, dict):
        if "kraus" in obj:
            return [("[0]", obj)]
        if "kraus_sets" in obj and isinstance(obj["kraus_sets"], list):
            return [(f"[{i}]", item) for i, item in enumerate(obj["kraus_sets"])]
        if "records" in obj and isinstance(obj["records"], list):
            out = []
            for i, rec in enumerate(obj["records"]):
                if not isinstance(rec, dict):
                    raise SchemaError(f"record {i} is not an object")
                for j, item in enumerate(_typed(rec, "kraus_samples", "array", [])):
                    out.append((f"records[{i}].kraus_samples[{j}]", item))
            return out
    raise SchemaError(
        "expected a Kraus set, a list of Kraus sets, {'kraus_sets': [...]}, "
        "or a run manifest"
    )


def classify_file(path, tol_rank: float = DEFAULT_TOL_RANK) -> list[dict]:
    """Validate (CP, TP) and classify every Kraus set stored in a JSON file.

    Every entry is parsed first, by declared (K, d) and with the collector
    paused (module docstring); a schema error stays on its own entry.  The
    sets of each (K, d) shape are then checked as one stack: one batched
    eigenvalue call (CP) on the smaller of the Choi and Gram matrices, TP
    residual and rank test per shape, with each set's results filled back
    into its entry in file order.  Complete-positivity and
    trace-preservation failures become per-entry diagnostics rather than
    exceptions, so a clean run over a mixed file still exits 0.  The Choi and
    Gram matrices of any Kraus set are positive semidefinite, so the CP floor
    is 0 or roundoff, and against -1e-10 * max(1, largest eigenvalue), the
    kernel threshold's rule, it fails only on overflow NaN.  A ``tol_rank``
    outside (0, 1) raises :class:`gcec.errors.BadTolerance` before reading.
    """
    check_tol_rank(tol_rank)
    entries, shapes = [], {}
    with _collector_paused():
        tagged = _kraus_sets_in(_read_json(path))
        parse = _kraus_parser([item for _, item in tagged])
        for tag, item in tagged:
            entry = {"source": tag, "classification": None, "error": None}
            entries.append(entry)
            try:
                ks = parse(item)
            except SchemaError as exc:
                entry["error"] = f"{type(exc).__name__}: {exc}"
                continue
            entry.update({"d": ks.d, "K": ks.K})
            shapes.setdefault((ks.K, ks.d), []).append((entry, ks.matrices))
        tagged = parse = item = None  # frees the parsed tree: only the matrices stay
    for (K, d), members in shapes.items():
        stack = np.stack([mats for _, mats in members])
        # The smaller of the Choi and Gram matrices (channels docstring); beside
        # the Gram matrix's, the Choi matrix has d^2 - K zero eigenvalues.
        vecs, gram = stack.reshape(len(stack), K, d * d), K < d * d
        # Finite entries can still overflow; their NaN values fail the checks below.
        with np.errstate(over="ignore", invalid="ignore"):
            smaller = vecs.conj() @ vecs.swapaxes(-1, -2) / d if gram else choi(stack)
            eigvals = finite_batch(np.linalg.eigvalsh, smaller)
            cp_floors = np.minimum(eigvals[:, 0], 0.0) if gram else eigvals[:, 0]
            cp_bounds = -1e-10 * np.maximum(1.0, eigvals[:, -1])  # NaN stays NaN
            test = test_extreme(stack, tol_rank)
        for i, (entry, _) in enumerate(members):
            try:
                entry["choi_min_eigenvalue"] = cp_floor = float(cp_floors[i])
                if not cp_floor >= cp_bounds[i]:
                    raise SchemaError(f"not completely positive: min Choi eigenvalue {cp_floor:.3e}")
                entry["tp_residual"] = float(test.tp_residual[i])
                test.check_channels(i)
                entry.update(
                    {
                        "rank": int(test.rank[i]),
                        "expected_rank": K * K,
                        "min_singular_value": float(test.singular_values[i, -1]),
                        "classification": _classification(K, test.extreme[i : i + 1]),
                    }
                )
            except (SchemaError, NotTracePreserving) as exc:
                entry["error"] = f"{type(exc).__name__}: {exc}"
    return entries


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def report(manifest: RunManifest, format: str = "text") -> str:
    """Render a manifest as canonical JSON or a per-instance text table."""
    if format == "json":
        return manifest_to_json(manifest)
    if format != "text":
        raise SchemaError(f"unknown report format {format!r}")
    lines = [
        f"group {manifest.group} ({manifest.kind}), d={manifest.d}, seed={manifest.seed}",
        f"instances {manifest.total_instances}, channels found {manifest.count_found}",
        "",
        f"{'D1':<14} {'D2':<14} {'Omega':<6} {'params':>6} {'status':<15} {'class':<14} residuals",
    ]
    for rec in manifest.records:
        if rec.residuals:
            resid = (
                f"cov {rec.residuals['covariance']:.1e} "
                f"tp {rec.residuals['tp']:.1e} "
                f"sv {rec.residuals['rank_sigma_min']:.2e}"
            )
        else:
            resid = "-"
        if rec.error:
            resid += f"  !{rec.error}"
        lines.append(
            f"{rec.d1_label.text:<14} {rec.d2_label.text:<14} {rec.omega_label:<6} "
            f"{rec.n_params:>6} {rec.status:<15} {rec.classification:<14} {resid}"
        )
    return "\n".join(lines) + "\n"
