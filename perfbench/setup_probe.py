"""Set-up as a fresh interpreter pays it, for the set-up time metric.

Reads {"cases": [[text, ...], ...], "warm": [text, ...], "oracle": bool} as
JSON on stdin, imports the library from `src/` of the current directory,
parses every instance text, runs the warm-up case once, then prints
"ready".  The caller times this process from its start to that line.  The
probe then prints the median of three runs of the reference computation,
so the caller can scale the set-up time to the speed of the core it ran on.
"""

import json
import sys
from pathlib import Path

import program
from calibration import reference_seconds

job = json.load(sys.stdin)
flexconn = program.load(Path.cwd())
program.parse_cases(flexconn, job["cases"])
warm = program.parse_cases(flexconn, [job["warm"]])[0]
program.operation(flexconn, warm, job["oracle"])
print("ready", flush=True)
reference_seconds()  # first call warms the reference's own code paths
print(sorted(reference_seconds() for _ in range(3))[1], flush=True)
