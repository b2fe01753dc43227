#!/usr/bin/env python3
"""Write bench/reference.json: the seed-0 outputs of every operation.

Run from the repository root on the commit whose results are the
reference:

    python3 bench/make_reference.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile

import run
import workloads
from tracer import Tracer


def main():
    names = [n for group in workloads.WORKLOADS.values() for n in group]
    with tempfile.TemporaryDirectory(dir=run.ROOT) as work:
        pkg_root = os.path.join(work, "pkg")
        workloads.prepare_package(os.path.join(run.ROOT, "src", "tractrix"),
                                  pkg_root, names, 0)
        sys.path.insert(0, pkg_root)
        import tractrix.cli

        operations = {}
        for name in names:
            out_root = os.path.join(work, "out")
            with Tracer(span_hooks=[("simulate", "simulate")],
                        count_hooks=[]) as capture, \
                    contextlib.redirect_stdout(io.StringIO()):
                code = tractrix.cli.main(["gallery", "--only", name,
                                          "--out", out_root])
            ref = workloads.read_outputs(os.path.join(out_root, name))
            ref["records"] = sum(len(tr.t) for tr in capture.results)
            ref["exit_code"] = code
            operations[name] = ref
            print(f"{name}: exit {code}, {ref['records']} records")
    path = os.path.join(run.HERE, "reference.json")
    head = {"seed": 0, "commit": run.commit(),
            "source_sha256": run.source_digest(),
            "rtol": workloads.RTOL, "atol": workloads.ATOL,
            "d_atol": workloads.D_ATOL}
    lines = [f" {json.dumps(k)}: {json.dumps(v)}" for k, v in head.items()]
    ops = [f"  {json.dumps(k)}: {json.dumps(v)}"
           for k, v in operations.items()]
    with open(path, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + ',\n "operations": {\n'
                 + ",\n".join(ops) + "\n }\n}\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
