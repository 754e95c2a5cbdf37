"""Pin the solvers' work counters of a Table III run.

Compares each benchmark's SFS and VSFS `pops`, `props` and `engine.pushes`
in the JSON written by `bench/main.exe tableIII <scale> --json OUT` exactly
against a recorded file, and exits 1 on any difference:

    python3 bench/check_counts.py OUT bench/counts_0.1.json

With `--record` it writes the recorded file from OUT instead. A change that
moves a counter on purpose re-records the file and says why.
"""

import json
import sys


def counts(path):
    with open(path) as f:
        run = json.load(f)
    return {
        b["name"]: {
            s: {
                "pops": b[s]["pops"],
                "props": b[s]["props"],
                "pushes": b[s]["engine"]["pushes"],
            }
            for s in ("sfs", "vsfs")
        }
        for b in run["benchmarks"]
    }


def main(argv):
    if len(argv) not in (3, 4) or (len(argv) == 4 and argv[3] != "--record"):
        sys.exit("usage: check_counts.py RUN.json COUNTS.json [--record]")
    got = counts(argv[1])
    if len(argv) == 4:
        with open(argv[2], "w") as f:
            json.dump(got, f, indent=1, sort_keys=True)
            f.write("\n")
        return
    with open(argv[2]) as f:
        want = json.load(f)
    diffs = [
        f"{name}: {solver}.{key} {want[name][solver][key]} -> "
        f"{got[name][solver][key] if name in got else 'missing'}"
        for name in sorted(want)
        for solver in ("sfs", "vsfs")
        for key in ("pops", "props", "pushes")
        if name not in got or got[name][solver][key] != want[name][solver][key]
    ]
    diffs += [f"{name}: not recorded" for name in sorted(set(got) - set(want))]
    if diffs:
        print("solver counters differ from " + argv[2] + ":")
        print("\n".join("  " + d for d in diffs))
        sys.exit(1)
    print(f"solver counters match {argv[2]} ({len(want)} benchmarks)")


if __name__ == "__main__":
    main(sys.argv)
