#!/usr/bin/env python3
"""Compare two capture directories of tools/capture.sh file by file.

    python3 tools/numdiff.py DIR_A DIR_B

Each file under either directory gets one line: `identical`, `only in A`,
`only in B`, or `differs`. A text file that differs is followed by its
differing lines, paired in order (difflib). Where a pair has the same text
around the same count of numbers, the line says which numeric fields moved
and by how much; any other pair is printed as `-` (A) and `+` (B). The
file's line ends with the largest absolute and relative difference of its
numeric fields.

Some outputs may move in their last digits when floating-point work is
reordered: spectra and bearing-time rows. Others may not move at all, and
the report ends by naming each that did:
  - an exit code (a file named `exit`);
  - a pick line (a line that starts with `angles_deg:`);
  - a bench row (any line of a table whose first line starts with `# bench`).

Exit status: 0 when every file is identical; 1 when files differ, but no
exit code, pick line or bench row changed and no file is on one side only;
3 otherwise; 2 on a usage error. Needs only the stdlib and numpy.
"""
from __future__ import annotations

import argparse
import difflib
import re
import sys
from pathlib import Path

import numpy as np

# a number standing alone between separators (not inside a word or a hash)
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf|nan)"
                    r"(?![\w.])", re.IGNORECASE)
SHOWN_FIELDS = 3
SHOWN_CHARS = 160


def _fields(line: str):
    """(the text with each number replaced by #, the numbers)"""
    return NUMBER.sub("#", line), np.array([float(x) for x in NUMBER.findall(line)])


def _moved(a: np.ndarray, b: np.ndarray):
    """Absolute and relative differences of two equal-length number arrays;
    equal values (nan with nan, inf with inf) differ by 0."""
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    with np.errstate(invalid="ignore", divide="ignore"):
        absd = np.where(same, 0.0, np.abs(a - b))
        scale = np.maximum(np.abs(a), np.abs(b))
        reld = np.where(same, 0.0, np.where(scale > 0, absd / scale, np.inf))
    return np.nan_to_num(absd, nan=np.inf), np.nan_to_num(reld, nan=np.inf)


def _clip(line: str) -> str:
    return line if len(line) <= SHOWN_CHARS else line[:SHOWN_CHARS] + " ..."


def _pairs(a_lines, b_lines):
    """(A line number or None, B line number or None) of each differing
    line, 1-based, paired in order within each changed run."""
    matcher = difflib.SequenceMatcher(None, a_lines, b_lines, autojunk=False)
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag == "equal":
            continue
        for k in range(max(i2 - i1, j2 - j1)):
            yield (i1 + k + 1 if i1 + k < i2 else None,
                   j1 + k + 1 if j1 + k < j2 else None)


def compare_text(a_lines, b_lines):
    """(report lines, max abs, max rel, changed line texts) of two texts."""
    report, max_abs, max_rel, changed = [], 0.0, 0.0, []
    for i, j in _pairs(a_lines, b_lines):
        a = a_lines[i - 1] if i else None
        b = b_lines[j - 1] if j else None
        changed.extend(x for x in (a, b) if x is not None)
        if a is not None and b is not None:
            (a_text, a_num), (b_text, b_num) = _fields(a), _fields(b)
            if a_text == b_text and a_num.size == b_num.size:
                absd, reld = _moved(a_num, b_num)
                moved = np.flatnonzero((absd > 0) | (reld > 0))
                max_abs, max_rel = max(max_abs, absd.max()), max(max_rel, reld.max())
                shown = ", ".join(f"field {k + 1}: {a_num[k].item()!r} -> "
                                  f"{b_num[k].item()!r}" for k in moved[:SHOWN_FIELDS])
                more = f", and {moved.size - SHOWN_FIELDS} more" \
                    if moved.size > SHOWN_FIELDS else ""
                where = f"line {i}" if i == j else f"line {i} (B line {j})"
                report.append(f"  {where}: {moved.size} of {a_num.size} fields moved "
                              f"({shown}{more})")
                continue
        if a is not None:
            report.append(f"  -{i}: {_clip(a)}")
        if b is not None:
            report.append(f"  +{j}: {_clip(b)}")
    return report, max_abs, max_rel, changed


def _text(raw: bytes):
    try:
        return raw.decode("utf-8").splitlines()
    except UnicodeDecodeError:
        return None


def compare_dirs(dir_a: Path, dir_b: Path) -> int:
    files = sorted({p.relative_to(d).as_posix() for d in (dir_a, dir_b)
                    for p in d.rglob("*") if p.is_file()})
    counts = dict(identical=0, differ=0, one_side=0)
    exits, picks, bench = [], [], []
    for name in files:
        pa, pb = dir_a / name, dir_b / name
        if not (pa.is_file() and pb.is_file()):
            counts["one_side"] += 1
            print(f"only in {'A' if pa.is_file() else 'B'}  {name}")
            continue
        raw_a, raw_b = pa.read_bytes(), pb.read_bytes()
        if raw_a == raw_b:
            counts["identical"] += 1
            print(f"identical  {name}")
            continue
        counts["differ"] += 1
        a_lines, b_lines = _text(raw_a), _text(raw_b)
        if a_lines is None or b_lines is None:
            n_diff = sum(x != y for x, y in zip(raw_a, raw_b)) + abs(len(raw_a) - len(raw_b))
            print(f"differs    {name}: binary, {n_diff} of {max(len(raw_a), len(raw_b))} "
                  f"bytes")
            continue
        report, max_abs, max_rel, changed = compare_text(a_lines, b_lines)
        print(f"differs    {name}: {len(report)} lines; max abs {max_abs:.3g}, "
              f"max rel {max_rel:.3g}")
        for line in report:
            print(line)
        if pa.name == "exit":
            exits.append(f"{name} ({raw_a.decode().strip()} -> {raw_b.decode().strip()})")
        if any(line.startswith("angles_deg:") for line in changed):
            picks.append(name)
        if any(lines and lines[0].startswith("# bench") for lines in (a_lines, b_lines)):
            bench.append(name)
    print(f"{len(files)} files: {counts['identical']} identical, {counts['differ']} "
          f"differ, {counts['one_side']} on one side only")
    for what, names in (("exit codes", exits), ("pick lines", picks),
                        ("bench rows", bench)):
        print(f"{what} changed: {', '.join(names) if names else 'none'}")
    if exits or picks or bench or counts["one_side"]:
        return 3
    return 1 if counts["differ"] else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("dir_a", type=Path)
    ap.add_argument("dir_b", type=Path)
    args = ap.parse_args(argv)
    for d in (args.dir_a, args.dir_b):
        if not d.is_dir():
            ap.error(f"{d} is not a directory")
    return compare_dirs(args.dir_a, args.dir_b)


if __name__ == "__main__":
    sys.exit(main())
