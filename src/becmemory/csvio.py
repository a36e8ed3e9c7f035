"""CSV emission with full-precision numbers and reproducible metadata."""

import io

# '#'-prefixed metadata lines precede the header: artifact version, command,
# seed and the complete config echo, so a file fully documents its run.


def format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_table(path: str, command: str, version: str, config_map: dict,
                header: list[str], rows, extra_metadata=()) -> str:
    """Write one table and its metadata lines to ``path``; returns path."""
    buf = io.StringIO()
    buf.write(f"# artifact = becmemory {version}\n")
    buf.write(f"# command = {command}\n")
    buf.write(f"# seed = {config_map.get('seed', '')}\n")
    for key in sorted(config_map):
        buf.write(f"# config.{key} = {format_value(config_map[key])}\n")
    for line in extra_metadata:
        buf.write(f"# {line}\n")
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(format_value(v) for v in row) + "\n")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(buf.getvalue())
    return path
