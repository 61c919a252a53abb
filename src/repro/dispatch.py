"""``repro-cli``: one command over the library's tools.

``repro-cli lint …`` runs the determinism linter; ``repro-cli serve …``
starts the campaign-as-a-service HTTP server; ``repro-cli run …`` (or
any experiment names directly) forwards to the experiment CLI, so
``repro-cli fig2`` and ``repro-interferometry fig2`` are equivalent.

Each subcommand imports only what it runs.  The linter needs nothing
beyond the standard library, so ``repro-cli lint`` works on an install
without numpy; the simulator is loaded for ``run`` and experiments only.
"""

from __future__ import annotations

import sys

USAGE = (
    "usage: repro-cli <subcommand|experiment> [options]\n\n"
    "subcommands:\n"
    "  lint   static determinism linter (see 'repro-cli lint --help')\n"
    "  serve  campaign-as-a-service HTTP server over the store\n"
    "         (see 'repro-cli serve --help')\n"
    "  run    regenerate paper experiments (the default; see\n"
    "         'repro-cli run --help')\n"
)


def main(argv: list[str] | None = None) -> int:
    """Dispatch one ``repro-cli`` invocation; returns the exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "lint":
        from repro.lint.cli import main as lint_main

        return lint_main(argv[1:])
    if argv and argv[0] == "serve":
        from repro.serve import main as serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "run":
        argv = argv[1:]
    if not argv or argv[0] in ("-h", "--help"):
        print(USAGE)
        return 0
    from repro.cli import main as run_main

    return run_main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
