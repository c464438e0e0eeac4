"""Write every output of the benchmark workloads' seed-21 commands.

    python tools/identity_outputs.py --tree DIR --out DIR

Imports ``shellreduce`` from ``DIR/src`` and the workloads from
``DIR/perfbench/workloads.py`` of the ``--tree`` checkout, without editing
either.  For each workload it writes the seeded inputs under
``OUT/<workload>``, runs the workload's ``commands()`` through ``cli.main``,
then runs ``loads-reduce`` when the config sets a ``loads.`` key.  Each
command's exit code, stdout and stderr go to ``OUT/<workload>/<label>.json``
with the out directory written as ``<out>``.

Two checkouts give the same outputs when ``diff -r`` of their two out
directories prints nothing, e.g. a parent from ``git archive`` against the
working tree::

    python tools/identity_outputs.py --tree PARENT --out /tmp/a
    python tools/identity_outputs.py --tree . --out /tmp/b
    diff -r /tmp/a /tmp/b
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys

SEED = 21


def _record(path, out, argv, rc, stdout, stderr):
    mask = os.path.abspath(out)
    record = {"argv": [a.replace(mask, "<out>") for a in argv], "exit": rc,
              "stdout": stdout.replace(mask, "<out>"),
              "stderr": stderr.replace(mask, "<out>")}
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--tree", required=True, metavar="DIR",
                        help="checkout whose src/ and perfbench/ are run")
    parser.add_argument("--out", required=True, metavar="DIR",
                        help="directory for the outputs and records")
    args = parser.parse_args(argv)
    tree = os.path.abspath(args.tree)
    out = os.path.abspath(args.out)
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "perfbench")]
    import workloads
    from shellreduce import cli

    if not cli.__file__.startswith(os.path.join(tree, "src")):
        parser.error("shellreduce imported from %s, not from --tree"
                     % cli.__file__)

    for name, cls in workloads.WORKLOADS.items():
        work = cls(os.path.join(out, name), SEED)
        work.prepare()
        runs = [(label, cmd) for label, _, cmd in work.commands()]
        with open(work.config) as fh:
            if any(line.startswith("loads.") for line in fh):
                runs.append(("loads-reduce",
                             ["loads-reduce", "--config", work.config,
                              "--out", work.out("loads-reduce")]))
        for label, cmd in runs:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                rc = cli.main(cmd)
            _record(os.path.join(work.workdir, label + ".json"), out, cmd,
                    rc, stdout.getvalue(), stderr.getvalue())
            print("%s %s: exit %d" % (name, label, rc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
