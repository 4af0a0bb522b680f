#!/usr/bin/env python3
"""Golden-output test for the fault-breakdown figure harnesses (Figs. 6/16).

Runs each harness at the default scale (MAGESIM_SCALE unset) and compares its
stdout byte for byte with <golden dir>/<harness name>.golden. The printed
columns are sums of the exact per-stage fault totals, so any change to a
stage boundary, to the SpanKind -> column table or to simulated behaviour
shows up here as a line diff.

Intentional changes: rerun with MAGESIM_UPDATE_GOLDEN=1 to rewrite the
goldens, and commit them with the change that caused them.

usage: fig_golden_test.py <golden dir> <harness binary>...
"""
import difflib
import os
import subprocess
import sys


def main(argv):
    if len(argv) < 3:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    golden_dir, harnesses = argv[1], argv[2:]
    env = dict(os.environ)
    env.pop("MAGESIM_SCALE", None)
    update = os.environ.get("MAGESIM_UPDATE_GOLDEN", "") not in ("", "0")
    failed = 0
    for exe in harnesses:
        name = os.path.basename(exe)
        path = os.path.join(golden_dir, name + ".golden")
        out = subprocess.run([exe], env=env, check=True, stdout=subprocess.PIPE,
                             text=True).stdout
        if update:
            with open(path, "w") as f:
                f.write(out)
            print(f"updated {path}")
            continue
        with open(path) as f:
            want = f.read()
        if out == want:
            print(f"{name}: matches {path}")
            continue
        failed += 1
        print(f"{name}: output differs from {path}")
        sys.stdout.writelines(difflib.unified_diff(
            want.splitlines(keepends=True), out.splitlines(keepends=True),
            fromfile=path, tofile=name))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
