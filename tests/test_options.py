"""The command-line option surface against a recorded golden.

``tests/goldens/options.json`` lists, per subcommand and in declaration
order, every option's strings, destination, default, flag-ness,
``expose_value``, choices and ``required``, recorded from a reference
checkout with::

    PYTHONPATH=<reference>/src python tests/test_options.py --record tests/goldens/options.json

Types are left out on purpose: a type may be tightened (a finite float, an
integer range) without changing the surface. Re-record only when a change
is meant to add, drop or re-default an option.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from quatstat.cli import cli

GOLDENS = Path(__file__).parent / "goldens" / "options.json"


def _plain(value):
    """JSON-safe form of a default; click's "no default" sentinel becomes its repr."""
    return value if value is None or isinstance(value, (str, int, float, bool)) else repr(value)


def option_surface() -> dict[str, list[dict]]:
    return {
        name: [
            {
                "opts": list(p.opts),
                "secondary_opts": list(p.secondary_opts),
                "dest": p.name,
                "default": _plain(p.default),
                "is_flag": p.is_flag,
                "expose_value": p.expose_value,
                "choices": list(getattr(p.type, "choices", None) or []) or None,
                "required": p.required,
            }
            for p in command.params
        ]
        for name, command in sorted(cli.commands.items())
    }


def test_option_surface_is_unchanged():
    want = json.loads(GOLDENS.read_text())
    got = option_surface()
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], name


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", type=Path, required=True,
                        help="write the option surface of the installed quatstat here")
    args = parser.parse_args(argv)
    args.record.write_text(json.dumps(option_surface(), indent=1) + "\n")
    print(f"recorded the options of {len(cli.commands)} subcommands to {args.record}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
