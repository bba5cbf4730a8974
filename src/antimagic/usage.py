"""The argparse parser of the command line.

``cli._quick`` reads an argv that spells each argument in full without
argparse; ``cli.parse_args`` loads this module for any other argv (help,
an abbreviated option, "--", a value that starts with "-", a refusal) and
lets argparse read it, print help or refuse it.  The parser is built from
the argument rows that ``_quick`` reads (see ``cli._command``), so both
take the same arguments.  The caller passes the rows in: under ``python -m
antimagic.cli`` the running CLI is ``__main__``, and importing ``cli`` here
would compile it a second time.
"""

from __future__ import annotations

import argparse

PROG = "antimagic"
DESCRIPTION = "Local antimagic labelings of corona-product graphs."


def parser(commands: dict, command) -> argparse.ArgumentParser:
    """The parser of the subcommands of ``commands`` (name -> (help line,
    handler)), each with the argument rows and handler that
    ``command(name)`` gives."""
    top = argparse.ArgumentParser(prog=PROG, description=DESCRIPTION)
    sub = top.add_subparsers(dest="command", required=True)
    for name, (help_line, _func) in commands.items():
        rows, func = command(name)
        p = sub.add_parser(name, help=help_line)
        for flag, kind, default, text in rows:
            kw = {"choices": kind} if type(kind) is tuple else {"type": kind}
            if flag[0] == "-":  # a default of ... marks a required option
                kw["required"] = default is ...
                kw["default"] = None if default is ... else default
            p.add_argument(flag, help=text, **kw)
        p.set_defaults(func=func)
    return top
