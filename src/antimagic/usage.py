"""Help and refusals of the command line, in argparse's layout.

``cli`` reads an argv with its own parser, driven by argument rows (see
``cli._command``), and loads this module only to print help (``-h``) or to
refuse an argv, so that a request whose argv parses never compiles it.  The
text is laid out as argparse lays it out, to the terminal's width (or
``$COLUMNS``) less 2: the usage line is wrapped with the options first and
the positionals on lines of their own, and help lists each argument with its
help wrapped in a column that starts at most 24 characters in.
"""

from __future__ import annotations

import shutil
import sys
import textwrap

PROG = "antimagic"
DESCRIPTION = "Local antimagic labelings of corona-product graphs."
HELP = ("-h, --help", "show this help message and exit")


def _metavar(flag: str, kind) -> str:
    """The placeholder of an argument's value: its choices, else its name,
    upper-cased for an option."""
    if type(kind) is tuple:
        return "{%s}" % ",".join(kind)
    if flag[0] != "-":
        return flag
    return flag.lstrip("-").replace("-", "_").upper()


def _fill(parts: list, indent: str, width: int, used: int | None = None
          ) -> list:
    """``parts`` joined by spaces into lines of at most ``width`` columns,
    each after ``indent``; the first line has ``used`` columns taken (by
    default the indent's, less the space before a part)."""
    used = len(indent) - 1 if used is None else used
    lines, line = [], []
    for part in parts:
        if line and used + 1 + len(part) > width:
            lines.append(indent + " ".join(line))
            line, used = [], len(indent) - 1
        line.append(part)
        used += len(part) + 1
    if line:
        lines.append(indent + " ".join(line))
    return lines


def _usage(commands: dict, command: str | None, rows: tuple,
           width: int) -> str:
    """The usage line(s) of ``command`` (None: the top level)."""
    prog = PROG if command is None else f"{PROG} {command}"
    options, positionals = ["[-h]"], []
    if command is None:
        positionals = ["{%s}" % ",".join(commands), "..."]
    for flag, kind, default, _text in rows:
        if flag[0] != "-":
            positionals.append(_metavar(flag, kind))
        elif default is ...:  # required, so not bracketed: two parts
            options += [flag, _metavar(flag, kind)]
        else:
            options.append(f"[{flag} {_metavar(flag, kind)}]")
    prefix = "usage: "
    text = " ".join([prog, *options, *positionals])
    if len(prefix) + len(text) > width:
        if len(prefix) + len(prog) <= 0.75 * width:
            # the parts after the program, under its first part
            indent = " " * (len(prefix) + len(prog) + 1)
            lines = (_fill([prog, *options], indent, width, len(prefix) - 1)
                     + _fill(positionals, indent, width))
            lines[0] = lines[0][len(indent):]
        else:  # the program on a line of its own
            indent = " " * len(prefix)
            lines = _fill(options + positionals, indent, width)
            if len(lines) > 1:
                lines = (_fill(options, indent, width)
                         + _fill(positionals, indent, width))
            lines.insert(0, prog)
        text = "\n".join(lines)
    return prefix + text + "\n"


def _help(commands: dict, command: str | None, rows: tuple,
          width: int) -> str:
    """The help of ``command`` (None: the top level)."""
    # (invocation, help, indent) per section; a subcommand is listed under
    # the choices of the top level, 2 columns further in
    positionals, options = [], [(*HELP, 2)]
    if command is None:
        positionals.append(("{%s}" % ",".join(commands), "", 2))
        positionals += [(name, line, 4)
                        for name, (line, _func) in commands.items()]
    for flag, kind, _default, text in rows:
        if flag[0] == "-":
            options.append((f"{flag} {_metavar(flag, kind)}", text, 2))
        else:
            positionals.append((_metavar(flag, kind), text, 2))
    longest = max(len(item[0]) for item in positionals + options) + 2
    column = min(longest + 2, 24, max(width - 20, 4))
    out = [_usage(commands, command, rows, width), "\n"]
    if command is None:
        out.append(textwrap.fill(DESCRIPTION, max(width, 11)) + "\n\n")
    for title, items in (("positional arguments", positionals),
                         ("options", options)):
        if not items:
            continue
        out.append(title + ":\n")
        for invocation, text, indent in items:
            head = " " * indent + invocation
            if not text:
                out.append(head + "\n")
                continue
            lines = textwrap.wrap(" ".join(text.split()),
                                  max(width - column, 11))
            if len(invocation) <= column - indent - 2:
                out.append(head.ljust(column) + lines.pop(0) + "\n")
            else:
                out.append(head + "\n")
            out += [" " * column + line + "\n" for line in lines]
        out.append("\n")
    return "".join(out).rstrip("\n") + "\n"


def _write(text: str, file) -> None:
    # as argparse writes it: a stream that is gone is not an error
    try:
        file.write(text)
    except (AttributeError, OSError):
        pass


def leave(commands: dict, command: str | None, rows: tuple,
          message: str | None = None):
    """Print the help of ``command`` (None: the top level, which lists
    ``commands``, name -> (help line, handler)) on stdout and exit 0, or,
    given ``message``, the usage line and ``prog: error: message`` on
    stderr and exit 2.  ``rows`` are the argument rows of ``command``."""
    width = shutil.get_terminal_size().columns - 2
    if message is None:
        _write(_help(commands, command, rows, width), sys.stdout)
        raise SystemExit(0)
    prog = PROG if command is None else f"{PROG} {command}"
    _write(_usage(commands, command, rows, width)
           + f"{prog}: error: {message}\n", sys.stderr)
    raise SystemExit(2)
