"""The `--help` text of the command line, laid out as argparse laid it out.

Loaded by `--help` only, so no other command compiles it.  Everything it
prints comes from the table of `cli`, which is passed in.
"""

DESCRIPTION = ("Exact Hurwitz numbers, symmetric-group characters, infinite-wedge correlators,\n"
               "completed cycles, and stationary invariants of target curves.")


def help_text(subcommand, commands: dict, top_flags: dict, required) -> str:
    """The help of the top level (`subcommand` None) or of one subcommand:
    the usage line, wrapped below 80 columns, then each flag with its help.
    `commands` maps a subcommand to (help, handler, flags), and a flag
    whose default is `required` must be given."""
    flags = commands[subcommand][2] if subcommand else top_flags
    labels = {name: name if type_ is bool else f"{name} {name[2:].replace('-', '_').upper()}"
              for name, (type_, _, _) in flags.items()}
    lines = [f"usage: gwhurwitz {subcommand}" if subcommand else "usage: gwhurwitz"]
    indent = " " * len(lines[0])
    for item in ["[-h]", *(label if flags[name][1] is required else f"[{label}]"
                           for name, label in labels.items()),
                 *([] if subcommand else ["{" + ",".join(commands) + "} ..."])]:
        if len(lines[-1]) + len(item) >= 79:
            lines.append(indent)
        lines[-1] += " " + item
    if not subcommand:
        lines += ["", DESCRIPTION, "", "subcommands:",
                  *(f"  {name:8}{spec[0]}" for name, spec in commands.items())]
    rows = [("-h, --help", "show this help message and exit"),
            *((label, flags[name][2]) for name, label in labels.items())]
    # the help from column min(longest + 4, 24), a longer name on a line of its own
    width = min(max(len(label) for label, _ in rows), 20)
    lines += ["", "options:"]
    for label, text in rows:
        gap = " " * (width + 2 - len(label)) if len(label) <= width else "\n" + " " * (width + 4)
        lines.append(f"  {label}{gap}{text}".rstrip())
    return "\n".join(lines)
