"""Catalog sweep over admissible lengths, persistence, and re-verification.

Every record is fixed by its length n.  One scan for the representations
n = a^2 + b^2 (``arithmetic.root_classes``) gives every root of -1 mod n and
each root class's min-L1 a + b; the largest a + b names the record's alpha
(``strongest_root``).  ``distance.lattice_fields(alpha, n)`` derives every
stored field but those roots and the certificate, from one reduction of the
lattice; the certificate is the staircase of that derivation's own witness
``t_witness``.  ``analyze_length`` is this one derivation, with no dense
algebra.  The sweep returns its record (a dict) per admissible n with 2n <=
max_length, revalidating each certificate once (``upper_bound_certificate``).
Records serialize to newline-delimited JSON or to a flat CSV export, with
exact integers only; the JSON header records max_length and a seed, a label.
``verify`` derives every record of either format with ``analyze_length``,
compares it field by field, and checks by arithmetic that the recomputed
certificate is a weight-d logical operator (see ``verify_catalog``).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json

from . import arithmetic
from .distance import lattice_fields, upper_bound_certificate
from .torus_graph import TorusGraph

SCHEMA_NAME = "gb-catalog"
SCHEMA_VERSION = 3

CSV_COLUMNS = ["length", "k", "d", "n", "alpha", "lower", "method"]
_MALFORMED = (KeyError, TypeError, ValueError, OverflowError)  # a stored value of the wrong shape


def _roots(n: int) -> tuple[list[int], int | None]:
    """Every root of -1 in [1, n - 1] and the strongest class, from one scan; ([], None) if none."""
    try:
        classes = arithmetic.root_classes(n)
    except ValueError:
        classes = []
    best = max(classes, key=lambda c: c[1])[0] if classes else None
    return arithmetic.class_members(n, classes), best


def strongest_root(n: int) -> int | None:
    """The root class of -1 mod n with the largest min-L1, named by its smaller member.

    Each class is one representation n = a^2 + b^2, of min-L1 a + b, so no
    two tie.  None when n has no square root of -1 in [1, n - 1].
    """
    return _roots(n)[1]


def analyze_length(n: int) -> dict | None:
    """n's record, from one root scan and one lattice reduction, no dense algebra; None when n has no root."""
    roots, alpha = _roots(n)
    if alpha is None:
        return None
    fields = lattice_fields(alpha, n)
    certificate = TorusGraph(n, alpha).staircase_edges(tuple(fields["t_witness"]))
    return {**fields, "alphas": roots, "certificate": list(certificate)}


def sweep_catalog(max_length: int) -> list[dict]:
    """The record of every admissible n with 2n <= max_length, sorted by (d, length, alpha)."""
    records = [r for r in map(analyze_length, range(1, max_length // 2 + 1)) if r is not None]
    for r in records:  # revalidate each certificate once: a RuntimeError unless a weight-d logical
        upper_bound_certificate(r["alpha"], r["n"], tuple(r["t_witness"]))
    return sorted(records, key=lambda r: (r["d"], r["length"], r["alpha"]))


def _header_dict(max_length: int, seed: int) -> dict:
    return {"schema": SCHEMA_NAME, "version": SCHEMA_VERSION, "max_length": max_length, "seed": seed}


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def render_json(records: list[dict], max_length: int, seed: int) -> str:
    lines = [_dump(_header_dict(max_length, seed))]
    lines.extend(_dump(r) for r in records)
    return "\n".join(lines) + "\n"


def _csv_line(fields: list) -> str:
    """One CSV line as ``render_csv`` writes it, without its LF."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(fields)
    return buf.getvalue()


def render_csv(records: list[dict]) -> str:
    lines = [CSV_COLUMNS, *([r[c] for c in CSV_COLUMNS] for r in records)]
    return "".join(_csv_line(fields) + "\n" for fields in lines)


def write_catalog(path: str, records: list[dict], max_length: int, seed: int = 1, fmt: str = "json") -> None:
    if fmt == "json":
        text = render_json(records, max_length, seed)
    elif fmt == "csv":
        text = render_csv(records)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(text)


def _row_problems(row: dict, keys: list[str] | None, render, seen: set[int], max_length: int | None,
                  gap: int | None) -> list[str]:
    """Compare one stored row with the record its n fixes.

    ``keys`` lists the stored columns (None for a full JSON record, which
    must hold every field and the certificate); ``render`` gives the stored
    text form of a value.  Duplicates and out-of-range lengths are rejected
    before the roots of -1 mod n are sought, and none are sought for n past
    ``gap``, the first missing row, which is reported on its own.
    """
    n, alpha = int(row["n"]), int(row["alpha"])
    if n in seen:
        return [f"duplicate row for n = {n}"]
    seen.add(n)
    if max_length is not None and 2 * n > max_length:
        return [f"length {2 * n} exceeds the header's max_length {max_length}"]
    if gap is not None and n > gap:
        return []
    expected = analyze_length(n)
    if expected is None:
        return [f"n = {n} has no square root of -1 in [1, n - 1]"]
    if alpha != expected["alpha"]:
        return [f"alpha {alpha} is not the strongest root of -1 mod {n} (expected {expected['alpha']})"]
    certificate, (tx, ty) = expected["certificate"], expected["t_witness"]
    keys = keys or list(expected)  # a full JSON record holds every field and the certificate
    problems = [f"missing key {key}" for key in keys if key not in row]
    problems += [f"unexpected key {key}" for key in row if key not in keys]
    problems += [f"{key} {render(row[key])} != recomputed {render(value)}"
                 for key, value in expected.items() if key in row and render(row[key]) != render(value)]
    if len(certificate) != expected["d"]:
        problems.append(f"certificate weight {len(certificate)} != d {expected['d']}")
    elif len(set(certificate)) != len(certificate):
        problems.append("certificate repeats an edge")
    if ty % 2 == 0 and (tx + alpha * ty) // n % 2 == 0:  # t = c1 (n, 0) + c2 (-alpha, 1) with c1, c2 even
        problems.append("certificate is not a logical operator")
    return problems


def _header_problems(header: dict) -> list[str]:
    """The JSON header must hold exactly the written keys, with integer values."""
    if (header.get("schema"), header.get("version")) != (SCHEMA_NAME, SCHEMA_VERSION):
        return [f"unexpected schema {header.get('schema')!r} version {header.get('version')!r}"]
    keys = _header_dict(0, 0)
    problems = [f"missing key {key}" for key in keys if key not in header]
    problems += [f"unexpected key {key}" for key in header if key not in keys]
    if "max_length" in header and (type(header["max_length"]) is not int or header["max_length"] < 0):
        problems.append(f"max_length {header['max_length']!r} is not a nonnegative integer")
    if "seed" in header and type(header["seed"]) is not int:
        problems.append(f"seed {header['seed']!r} is not an integer")
    return problems


def _body(line: str) -> str:
    """A line without its ending, which universal newlines end with LF, CR or CRLF."""
    return line.rstrip("\r\n")


def verify_catalog(path: str) -> tuple[int, list[str]]:
    """Recheck every record of a written catalog.

    Returns (record count, problems); each problem names its line or the
    missing n.  Each record must be the only one for its n, lie within the
    JSON header's max_length, name the strongest root class, and match
    the writer's ``analyze_length`` field by field.  A JSON header or record must
    hold exactly the written keys.  The certificate is compared like any
    field, with the edges of the staircase of the recomputed ``t_witness``:
    d distinct edges, with t_witness not in 2L, so a weight-d logical (no
    edge set, no dense algebra).  Every admissible n must have a row up to the
    JSON header's max_length (for a CSV export, up to the largest stored n).
    The first gap is found and reported before any row is derived, and rows
    past it are not derived.  A rejected header, JSON or CSV, or an empty
    file, is the only problem reported: no row is read.

    One pass reads the lines, in the format line 1 names: JSON if it starts
    with ``{``, else CSV.  Each line is parsed on its own, so a quoted CSV
    field never spans lines.  The bytes must be the writer's: a lone LF ends
    every line, no line is blank, each line is the writer's text of what it
    parses to (``_dump`` or ``_csv_line``), and the rows that check clean
    come in the writer's (d, length, alpha) order.  Each of these rules is
    reported once, at the first line that breaks it; none needs a derivation.
    """
    with open(path, "rb") as f:
        raw = f.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        return 0, [f"byte {exc.start}: not UTF-8 text ({exc.reason})"]
    lines = io.StringIO(text, newline="").readlines()  # split as universal newlines, endings kept
    if not lines:
        return 0, ["line 1: empty file, no header"]
    if lines[0].lstrip().startswith("{"):
        fmt, keys, render, dump = "JSON", None, _dump, _dump
        wrong_text = "not the writer's JSON (compact, keys sorted)"
    else:
        fmt, keys, render, dump = "CSV", CSV_COLUMNS, str, _csv_line
        wrong_text = "not the writer's CSV"
    form: dict[str, tuple[int, str]] = {}  # rule -> (line number, problem) at its first break
    rows = []  # (line number, stored row, parse problem or None)
    stored = set()  # the n of every row that holds a readable one
    max_length = None
    for lineno, line in enumerate(lines, start=1):
        if not line.endswith("\n") or line.endswith("\r\n"):
            form.setdefault("ending", (lineno, f"line ends in {line[len(_body(line)):]!r}, not a lone LF"))
        if not line.strip():
            form.setdefault("blank", (lineno, "blank line"))
        if lineno > 1 and not (_body(line) if keys else line.strip()):
            continue  # a blank line holds no row, but a CSV line of spaces is a one-field row
        row, problem = None, None
        try:
            row = next(csv.reader([line])) if keys else json.loads(line)
        except (ValueError, RecursionError, csv.Error) as exc:  # also over-long JSON integers and deep nesting
            problem = f"corrupt {fmt} ({getattr(exc, 'msg', exc)})"
        if not problem and _body(line) != dump(row):
            form.setdefault("text", (lineno, wrong_text))
        if lineno == 1:
            if keys:
                header_problems = [problem or f"unexpected CSV columns {row}"] if row != keys else []
            else:
                header_problems = [problem] if problem else _header_problems(row)
            if header_problems:
                return 0, [f"line 1: {p}" for p in header_problems]
            max_length = None if keys else row["max_length"]
            continue
        if keys and not problem:  # a CSV row becomes a dict, or its field-count problem
            if len(row) == len(keys):
                row = dict(zip(keys, row))
            else:
                row, problem = None, f"expected {len(keys)} fields, got {len(row)}"
        rows.append((lineno, row, problem))
        with contextlib.suppress(*_MALFORMED):
            stored.add(int(row["n"]))
    top = max_length // 2 if max_length is not None else max(stored, default=0)
    # stop at the first gap, so the scan never runs far past the stored rows
    gap = next((n for n in range(2, top + 1) if n not in stored and arithmetic.is_admissible(n)), None)
    seen: set[int] = set()
    found = []  # (line number, problem)
    previous = None  # the (d, length, alpha) of the last row that checked clean
    for lineno, row, problem in rows:
        try:
            row_problems = [problem] if problem else _row_problems(row, keys, render, seen, max_length, gap)
        except _MALFORMED as exc:
            row_problems = [f"malformed record ({exc})"]
        found.extend((lineno, p) for p in row_problems)
        if not row_problems:
            with contextlib.suppress(*_MALFORMED):  # a row past the gap is not derived
                order = (int(row["d"]), int(row["length"]), int(row["alpha"]))
                if previous is not None and order < previous:
                    form.setdefault("order", (lineno, "row out of the writer's (d, length, alpha) order"))
                previous = order
    found.extend(form.values())
    problems = [f"line {lineno}: {p}" for lineno, p in sorted(found, key=lambda f: f[0])]
    if gap is not None:
        problems.append(f"missing row for n = {gap}")
    return len(rows), problems
