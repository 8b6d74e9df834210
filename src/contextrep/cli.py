"""Command-line front end; `contextrep --help` lists the subcommands.

The README's "Command line" section gives the input formats, the report
bytes and the exit codes.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Optional, Sequence, TypeVar

from .errors import ContextRepError, InvalidPhases, ParseError
from .hilbert import ComplexContextVector, PhaseAssignment, build_complex_context
from .joint import (
    JointTable,
    build_joint_vectors,
    check_tolerance,
    default_tolerance,
    is_product,
    parse_joint_csv,
    parse_joint_json,
)
from .probability import (
    ContextId,
    CountTable,
    ProbabilityVector,
    _reject_duplicate_keys,
    load_json,
    parse_counts_csv,
    parse_counts_json,
    probabilities_from_counts,
    value_entry,
)
from .scenarios import (
    VesselsConfig,
    animal_acts_dataset,
    animal_acts_tables,
    simulate_vessels,
    vessels_joint_table,
)
from .simplex import build_real_context, monte_carlo_measurement

DEFAULT_TRIALS = 100_000

T = TypeVar("T")


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:  # unreadable input, not a semantic error
        raise ParseError(f"{path} is not UTF-8 text: byte {exc.start} ({exc.reason})") from None


def _parse_file(path: str, parse_json: Callable[[str], T], parse_csv: Callable[[str], T]) -> T:
    """Parse by extension; without .json or .csv, a leading '{' means JSON."""
    text = _read_text(path)
    if path.endswith(".json") or (not path.endswith(".csv") and text.lstrip()[:1] == "{"):
        return parse_json(text)
    return parse_csv(text)


def _load_phases(path: Optional[str], labels: Sequence[str]) -> Optional[PhaseAssignment]:
    """The --phases file over the given basis labels; None when no file was named."""
    if path is None:
        return None
    hook = functools.partial(_reject_duplicate_keys, error=InvalidPhases, what="phases")
    data = load_json(_read_text(path), "phases", object_pairs_hook=hook)
    if not isinstance(data, dict):
        raise InvalidPhases("phases file must be a JSON object mapping labels to radians")
    return PhaseAssignment.from_mapping(data, labels)


def _moduli_entries(w: ComplexContextVector) -> dict:
    return {label: value_entry(mod) for label, mod in zip(w.outcomes.labels, w.moduli())}


def _joint_sections(t: JointTable, cfg: dict, table_key: str) -> dict:
    """Table, verdict and joint vectors of a joint-table report, --float applied first."""
    if cfg["arithmetic"] == "float" and t.is_exact:
        t = JointTable(t.row_outcomes, t.col_outcomes, t.as_floats())
    if cfg["arithmetic"] == "float" and cfg["tolerance"] is None:
        cfg["tolerance"] = default_tolerance(t)  # the config block reports the table's default
    report = is_product(t, tol=cfg["tolerance"])
    real, w = build_joint_vectors(t, _load_phases(cfg["phases"], t.combined_labels()))
    return {
        table_key: {
            "rows": list(t.row_outcomes.labels),
            "cols": list(t.col_outcomes.labels),
            "counts": [list(r) for r in t.counts] if t.counts is not None else None,
            "probabilities": [[value_entry(p) for p in row] for row in t.probs],
        },
        "report": report.to_json_dict(),
        "joint_real_vector": {
            label: value_entry(x) for label, x in zip(t.combined_labels(), real)
        },
        "joint_complex_vector": w.to_json_dict(),
    }


def _counts_input(path: str) -> tuple[CountTable, ProbabilityVector, ContextId]:
    """The counts file, its probability vector and its context, named after the file."""
    counts = _parse_file(path, parse_counts_json, parse_counts_csv)
    ctx = ContextId(entity=Path(path).stem, state="observed", measurement="outcome-counts")
    return counts, probabilities_from_counts(counts), ctx


def _trials_and_seed(cfg: dict) -> tuple[int, int]:
    """The simulation's trials and seed: the flags, else DEFAULT_TRIALS and 0."""
    return (cfg["trials"] if cfg["trials"] is not None else DEFAULT_TRIALS,
            cfg["seed"] if cfg["seed"] is not None else 0)


def cmd_represent(args: argparse.Namespace, cfg: dict) -> dict:
    counts, p, ctx = _counts_input(args.input)
    w = build_complex_context(p, ctx, phases=_load_phases(cfg["phases"], counts.outcomes.labels))
    return {
        "context": ctx.as_dict(),
        "counts": counts.as_mapping(),
        "total": counts.total,
        "real_vector": p.to_json_dict(),
        "complex_vector": w.to_json_dict(),
        "moduli": _moduli_entries(w),
        "born_probabilities": dict(zip(counts.outcomes.labels, w.probabilities())),
    }


def cmd_simulate(args: argparse.Namespace, cfg: dict) -> dict:
    _, p, ctx = _counts_input(args.input)
    mc = monte_carlo_measurement(build_real_context(p, ctx), *_trials_and_seed(cfg))
    return {
        **mc.to_json_dict(),
        "three_sigma_bounds": mc.three_sigma_bounds(),
        "pass": mc.within_three_sigma,
    }


def cmd_entanglement(args: argparse.Namespace, cfg: dict) -> dict:
    t = _parse_file(args.input, parse_joint_json, parse_joint_csv)
    return _joint_sections(t, cfg, "table")


def _poll_section(counts: CountTable, p: ProbabilityVector, ctx: ContextId) -> dict:
    return {
        "counts": counts.as_mapping(),
        "real_vector": p.to_json_dict(),
        "moduli": _moduli_entries(build_complex_context(p, ctx)),
    }


def cmd_scenario_animal_acts(args: argparse.Namespace, cfg: dict) -> dict:
    dataset = animal_acts_dataset()
    tables = animal_acts_tables(dataset)
    return {
        "animal": _poll_section(
            dataset.animal_counts, tables.animal, ContextId("animal-acts", "survey", "animal")
        ),
        "act": _poll_section(
            dataset.act_counts, tables.act, ContextId("animal-acts", "survey", "act")
        ),
        **_joint_sections(tables.joint, cfg, "joint"),
    }


def cmd_scenario_vessels(args: argparse.Namespace, cfg: dict) -> dict:
    trials, seed = _trials_and_seed(cfg)
    vessels_cfg = VesselsConfig(mode=args.mode, trials=trials, seed=seed,
                                capacity=args.capacity, threshold=args.threshold)
    outcome_counts = simulate_vessels(vessels_cfg)
    return {
        "vessels": dataclasses.asdict(vessels_cfg),
        "outcome_counts": outcome_counts.as_mapping(),
        **_joint_sections(vessels_joint_table(outcome_counts), cfg, "joint"),
    }


def _config_from(args: argparse.Namespace) -> dict:
    """The report's `config` block: five keys, None where the subcommand lacks the flag."""
    arithmetic = "float" if getattr(args, "float", False) else None
    tolerance = getattr(args, "tolerance", None)
    if tolerance is not None:
        check_tolerance(tolerance)
    trials = getattr(args, "trials", None)
    if trials is not None and trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    return {
        "tolerance": tolerance,
        "arithmetic": arithmetic,
        "seed": getattr(args, "seed", None),
        "trials": trials,
        "phases": getattr(args, "phases", None),
    }


#: Every optional flag a subcommand may take, by name.
_FLAGS = {
    "--tolerance": dict(type=float, default=None,
                        help="product-test tolerance (default: 0 exact, 1e-9 float)"),
    "--float": dict(action="store_true",
                    help="convert the joint table to floating point before analysis"),
    "--seed": dict(type=int, default=None, help="RNG seed (default 0)"),
    "--trials": dict(type=int, default=None,
                     help=f"simulation trials (default {DEFAULT_TRIALS})"),
    "--phases": dict(metavar="FILE", default=None,
                     help="JSON file mapping basis labels to phase angles in radians"),
    "--output": dict(metavar="PATH", default=None,
                     help="write the JSON report here instead of stdout"),
}


def _add_subcommand(sub, command: str, handler, summary: str,
                    *flags: str) -> argparse.ArgumentParser:
    """The subcommand whose report names `command`: the named flags plus --output, no other."""
    parser = sub.add_parser(command.rsplit(" ", 1)[-1], help=summary)
    for flag in (*flags, "--output"):
        parser.add_argument(flag, **_FLAGS[flag])
    parser.set_defaults(handler=handler, report_command=command)
    return parser


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contextrep",
        description="Simplex and Hilbert representations of measurement data, "
        "with a product/entangled decision for joint statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rep = _add_subcommand(sub, "represent", cmd_represent,
                            "build real and complex vectors from a counts file", "--phases")
    p_rep.add_argument("input", help="counts file (CSV label,count or JSON object)")

    p_sim = _add_subcommand(sub, "simulate", cmd_simulate,
                            "Monte Carlo hidden-variable measurement vs target",
                            "--seed", "--trials")
    p_sim.add_argument("input", help="counts file (CSV label,count or JSON object)")

    p_ent = _add_subcommand(sub, "entanglement", cmd_entanglement,
                            "decide product vs entangled for a joint counts file",
                            "--tolerance", "--float", "--phases")
    p_ent.add_argument("input", help="joint counts file (CSV row,col,count or JSON)")

    p_scn = sub.add_parser("scenario", help="run a built-in scenario")
    scn_sub = p_scn.add_subparsers(dest="scenario", required=True)

    _add_subcommand(scn_sub, "scenario animal-acts", cmd_scenario_animal_acts,
                    "embedded survey dataset, full pipeline", "--tolerance", "--float")

    p_vs = _add_subcommand(scn_sub, "scenario vessels", cmd_scenario_vessels,
                           "two-vessel water experiment simulation",
                           "--seed", "--trials", "--tolerance", "--float")
    p_vs.add_argument("--mode", choices=("separate", "connected"), required=True)
    geometry = {f.name: f.default for f in dataclasses.fields(VesselsConfig)}
    p_vs.add_argument("--capacity", type=float, default=geometry["capacity"],
                      help="vessel capacity in liters (default %(default)s)")
    p_vs.add_argument("--threshold", type=float, default=geometry["threshold"],
                      help="more/less threshold in liters (default %(default)s)")

    return parser


#: json's spelling of the floats whose repr is not a JSON number.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


class _NotPlainJSON(Exception):
    """A dict key or value that `_dumps` leaves to `json.dumps`."""


def _write(o: object, newline: str, append: Callable[[str], None]) -> None:
    """Append o's JSON text; `newline` is "\\n" plus the indent of o's own line.

    The type tests run in `json.encoder`'s order, so int and float
    subclasses (bool, IntEnum, numpy.float64) print as json prints them.
    """
    if isinstance(o, str):
        append(encode_basestring_ascii(o))
    elif o is None:
        append("null")
    elif o is True:
        append("true")
    elif o is False:
        append("false")
    elif isinstance(o, int):
        append(int.__repr__(o))
    elif isinstance(o, float):
        text = float.__repr__(o)
        append(_NON_FINITE.get(text, text))
    elif isinstance(o, (list, tuple)):
        if not o:
            append("[]")
            return
        inner = newline + "  "
        sep, comma = "[" + inner, "," + inner
        for v in o:
            append(sep)
            sep = comma
            _write(v, inner, append)
        append(newline + "]")
    elif isinstance(o, dict):
        if not o:
            append("{}")
            return
        inner = newline + "  "
        sep, comma = "{" + inner, "," + inner
        for k, v in o.items():
            if not isinstance(k, str):
                raise _NotPlainJSON
            append(sep)
            sep = comma
            append(encode_basestring_ascii(k))
            append(": ")
            _write(v, inner, append)
        append(newline + "}")
    else:
        raise _NotPlainJSON


def _dumps(report: object) -> str:
    """The text of `json.dumps(report, indent=2)`, written in one pass.

    Any indent turns json's C encoder off, and its pure-Python generators
    cost more than the rest of a small report.  A non-str key, a value of no
    JSON type, or nesting that exhausts the recursion limit (a cycle) hands
    the whole report to `json.dumps`, which converts the key or raises its
    own error.
    """
    parts: list[str] = []
    try:
        _write(report, "\n", parts.append)
    except (_NotPlainJSON, RecursionError):
        return json.dumps(report, indent=2)
    return "".join(parts)


def _emit(report: dict, output: Optional[str]) -> None:
    text = _dumps(report) + "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8")


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from(args)
        report = {"command": args.report_command, "config": cfg, **args.handler(args, cfg)}
        _emit(report, args.output)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ContextRepError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
