"""Show what changed between two directories of golden reports, key by key.

Give the goldens before and after a change, for instance those of the
parent commit and of the working tree::

    mkdir -p before && git archive HEAD tests/golden | tar -x -C before
    python3 tools/golden_diff.py before/tests/golden tests/golden \\
        --allow 'rabi.json:analytic.*'

Each JSON file is read as a tree of keys: a nested key is written with
dots (``analytic.fidelity``), an element of a list by its position
(``0.params``). For every file that differs, the tool prints the keys
added (``+``), the keys removed (``-``) and each value that moved (``~``);
a moved number shows |delta| and, for two floats, its distance in units
in the last place. A file whose values are all equal but whose bytes
differ (another key order or float format) moves under the key
``(bytes)``, and so does any file that is not JSON. A file only one side
has counts all its keys as added or removed.

``--allow FILE:KEY`` names a move that is intended; both halves are
shell-style patterns, so ``'*:analytic.*'`` allows every analytic value
to move. The tool exits 1 if a key is removed or a value moves without
an ``--allow`` that names it, and 0 otherwise: an added key is never an
error. The last line sums up the comparison.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import math
import os
import struct
import sys


def flatten(tree, prefix: str = "") -> dict:
    """The leaves of a JSON tree by their dotted keys."""
    if isinstance(tree, (dict, list)):
        items = tree.items() if isinstance(tree, dict) else enumerate(tree)
        leaves = {}
        for key, value in items:
            leaves.update(flatten(value, f"{prefix}{key}."))
        return leaves
    return {prefix[:-1]: tree}


def _ordered(x: float) -> int:
    """An integer that orders floats as the floats order themselves, one
    apart per ulp; +0 and -0 both give 0."""
    (bits,) = struct.unpack("<q", struct.pack("<d", x))
    return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)


def ulps(a: float, b: float) -> int:
    """The distance from a to b in units in the last place."""
    return abs(_ordered(a) - _ordered(b))


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _same(a, b) -> bool:
    """Equal leaves: the same type and, for floats, the same bits."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    return a == b


def _leaves(path: str) -> dict | None:
    """The leaves of a JSON file, or None when it is not JSON."""
    try:
        with open(path, encoding="utf-8") as fh:
            return flatten(json.load(fh))
    except (UnicodeDecodeError, ValueError):
        return None


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _side(path: str | None) -> dict:
    """The leaves of one side's file: none when it is missing, and its bytes
    under ``(bytes)`` when it is not JSON."""
    if path is None:
        return {}
    leaves = _leaves(path)
    return {"(bytes)": _read_bytes(path)} if leaves is None else leaves


def diff_file(before: str | None, after: str | None) -> dict:
    """Keys added, keys removed and values moved from one file to the other;
    a moved value is (key, old, new)."""
    old, new = _side(before), _side(after)
    moved = [(k, old[k], new[k]) for k in old if k in new and not _same(old[k], new[k])]
    if (before and after and not moved and old.keys() == new.keys()
            and _read_bytes(before) != _read_bytes(after)):
        moved = [("(bytes)", None, None)]
    return {"added": [k for k in new if k not in old],
            "removed": [k for k in old if k not in new],
            "moved": moved}


def _allowed(name: str, key: str, allow: list[str]) -> bool:
    for rule in allow:
        file_pattern, _, key_pattern = rule.partition(":")
        if fnmatch.fnmatchcase(name, file_pattern) and fnmatch.fnmatchcase(key, key_pattern):
            return True
    return False


def _move_line(key: str, old, new) -> str:
    if key == "(bytes)":
        return "(bytes)"
    line = f"{key}: {old!r} -> {new!r}"
    if _is_number(old) and _is_number(new):
        line += f"  |d|={abs(new - old):.3g}"
        if isinstance(old, float) and isinstance(new, float) and math.isfinite(old - new):
            line += f"  ulps={ulps(old, new)}"
    return line


def compare(before_dir: str, after_dir: str, allow: list[str]) -> tuple[list[str], int]:
    """The printed lines and the exit code of a comparison."""
    names = sorted(set(os.listdir(before_dir)) | set(os.listdir(after_dir)))
    lines = []
    counts = {"added": 0, "removed": 0, "moved": 0, "allowed": 0, "changed": 0}
    for name in names:
        paths = [os.path.join(d, name) for d in (before_dir, after_dir)]
        if any(os.path.isdir(p) for p in paths):
            continue
        before, after = (p if os.path.exists(p) else None for p in paths)
        d = diff_file(before, after)
        if not (d["added"] or d["removed"] or d["moved"]):
            continue
        counts["changed"] += 1
        lines.append(name + ("  (new)" if before is None else
                             "  (gone)" if after is None else ""))
        lines += [f"  + {k}" for k in d["added"]]
        lines += [f"  - {k}" for k in d["removed"]]
        for key, old, new in d["moved"]:
            ok = _allowed(name, key, allow)
            counts["allowed"] += ok
            lines.append(f"  ~ {_move_line(key, old, new)}" + ("  (allowed)" if ok else ""))
        counts["added"] += len(d["added"])
        counts["removed"] += len(d["removed"])
        counts["moved"] += len(d["moved"])
    refused = counts["removed"] + counts["moved"] - counts["allowed"]
    lines.append(
        f"{counts['changed']} of {len(names)} files changed: {counts['added']} keys "
        f"added, {counts['removed']} removed, {counts['moved']} values moved "
        f"({counts['allowed']} allowed); " + ("FAIL" if refused else "ok"))
    return lines, 1 if refused else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before", help="directory of the goldens before the change")
    parser.add_argument("after", help="directory of the goldens after the change")
    parser.add_argument("--allow", nargs="+", action="extend", default=[],
                        metavar="FILE:KEY",
                        help="patterns of the moves that are intended")
    args = parser.parse_args(argv)
    for rule in args.allow:
        if ":" not in rule:
            parser.error(f"--allow {rule!r} is not FILE:KEY")
    for d in (args.before, args.after):
        if not os.path.isdir(d):
            sys.stderr.write(f"golden_diff: {d} is not a directory\n")
            return 2
    lines, code = compare(args.before, args.after, args.allow)
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
