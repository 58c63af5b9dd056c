"""Traced stand-in for ``python -m stunet.cli``.

    python cli_child.py TRACE_JSON predict --adj ... --series ... --ckpt ... --out ...

Times the fresh-process ``import stunet.cli`` as the ``cli.import`` span,
installs the tracer, runs ``stunet.cli.main`` under a ``cli.main`` span and
writes the spans and counters to TRACE_JSON. Used only by the traced run of
predict_cli_grid576; untraced runs start the real module.
"""

import time

_t_import = time.perf_counter()
import stunet.cli as cli  # noqa: E402  (its import time is the measurement)

_t_imported = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from tracing import Tracer, install  # noqa: E402


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tr = Tracer()
    tr.phase = "run"
    tr.op = 0
    tr.record("cli.import", _t_import, _t_imported)
    inst = install(tr)
    tr.begin("cli.main")
    try:
        code = cli.main(argv)
    finally:
        tr.end()
        inst.uninstall()
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(tr.export(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
