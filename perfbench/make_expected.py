"""Rewrite expected.json: the default seed's corpus digest and every answer.

    python3 perfbench/make_expected.py [WORKLOAD ...]

Runs each op of the default seed's corpus once and stores its answer, so
that runs with the default seed compare every answer against it. Refuses
to store anything when an output fails its check. Run it only when a
workload's generator changes; a changed answer is otherwise a bug.
"""

from __future__ import annotations

import json
import sys

from run import DEFAULT_SEED, HERE, digest, import_library
from workloads import WORKLOADS, direct


def main(names) -> int:
    path = HERE / "expected.json"
    stored = json.loads(path.read_text()) if path.exists() else {}
    ta = import_library()
    for name in names or WORKLOADS:
        wl = WORKLOADS[name]
        corpus, _ = wl.corpus(ta, DEFAULT_SEED)
        answers = []
        for idx, item in enumerate(corpus):
            out = wl.run_op(ta, item, direct)
            problem = wl.check(ta, item, out)
            if problem:
                print(f"{name}: input {idx}: {problem}", file=sys.stderr)
                return 1
            answers.append(out)
        stored[name] = {"corpus": digest(it.label for it in corpus), "answers": answers}
        print(f"{name}: {len(answers)} answers")
    path.write_text(json.dumps(stored) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
