"""Regenerate the golden instance corpus under tests/golden/.

Every file is named {kind}-{seed}.instance and must equal the canonical
rendering of gen_instance(kind, seed) byte for byte; the determinism
acceptance test re-derives each file from its name and compares.  Beside
each instance but the fgc-any ones, which the solver rejects by design,
{kind}-{seed}.solution holds the stdout of `flexconn solve` on it, and a CLI
test compares the two byte for byte.  Run this only when the generator, the
file format or a solver's output changes on purpose, and expect the diff to
show up in review.
"""

import io
from contextlib import redirect_stdout
from pathlib import Path

from flexconn.cli import main as cli_main
from flexconn.generators import gen_instance
from flexconn.instance_io import InstanceDoc, render_instance

CORPUS = [
    ("fgc-q1", 0),
    ("fgc-q1", 1),
    ("fgc-p1", 0),
    ("fgc-p1", 1),
    ("fgc-any", 0),
    ("fst", 0),
    ("fst", 1),
    ("fst", 2),
    ("ncfgc", 0),
    ("ncfgc", 1),
]


def main() -> None:
    out_dir = Path(__file__).resolve().parent.parent / "tests" / "golden"
    out_dir.mkdir(parents=True, exist_ok=True)
    for kind, seed in CORPUS:
        instance = gen_instance(kind, seed)
        doc = InstanceDoc(instance)
        path = out_dir / f"{kind}-{seed}.instance"
        path.write_text(render_instance(doc))
        print(path)
        if kind == "fgc-any":
            continue
        out = io.StringIO()
        with redirect_stdout(out):
            status = cli_main(["solve", str(path)])
        if status != 0:
            raise SystemExit(f"flexconn solve {path} exited {status}")
        solution = path.with_suffix(".solution")
        solution.write_text(out.getvalue())
        print(solution)


if __name__ == "__main__":
    main()
