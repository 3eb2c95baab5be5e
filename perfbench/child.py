"""Child process of the benchmark: runs byzsw jobs and times each one.

    python3 child.py JOBS.json RESULT.json

JOBS.json is {"trace": bool, "jobs": [...]}; a job is either
{"argv": [...], "stdout": path}, one call of the CLI entry point
``byzsw.cli.main(argv)`` with its output sent to ``path``, or
{"toy": scenario, "starts": k}, one call of the public ``r_star_general`` on
an imperfect-information scenario (the CLI prints that value but does not
write it). RESULT.json gets each job's wall time, exit code and error, plus
the interpreter and numpy versions. With "trace" set, the layers are wrapped
first (tracer.py) and the span totals are added; untraced children never
import the tracer.
"""
from __future__ import annotations

import contextlib
import json
import sys
import time


def _run_toy(doc: dict, starts: int) -> dict:
    from byzsw.rate_region import r_star_general
    from byzsw.scenario import scenario_from_dict

    scn = scenario_from_dict(doc)
    res = r_star_general(scn.p, scn.collection, scn.info_model, scn.honest_true,
                         scn.r_true, seed=scn.seed, starts=starts)
    return {"value": res.value, "residual": res.residual}


def main(jobs_path: str, result_path: str) -> int:
    with open(jobs_path) as fh:
        spec = json.load(fh)
    import numpy
    import byzsw
    import byzsw.cli
    out = {"python": sys.version.split()[0], "numpy": numpy.__version__,
           "byzsw_file": byzsw.__file__}

    tracer = None
    if spec["trace"]:
        import tracer as tracing
        out["call_cost_ns"] = tracing.call_cost_ns()
        tracer = tracing.Tracer()
        tracer.install()

    results = []
    for job in spec["jobs"]:
        row = {"exit": 0, "error": None}
        start = time.perf_counter()
        try:
            if "argv" in job:
                with open(job["stdout"], "w") as fh, contextlib.redirect_stdout(fh):
                    row["exit"] = byzsw.cli.main(job["argv"])
            else:
                row.update(_run_toy(job["toy"], job["starts"]))
        except (Exception, SystemExit) as exc:     # a failed job is reported, not fatal
            row["exit"] = 1
            row["error"] = f"{type(exc).__name__}: {exc}"
        row["main_s"] = time.perf_counter() - start
        results.append(row)
    out["jobs"] = results
    if tracer is not None:
        out["trace"] = tracer.report()
    with open(result_path, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
