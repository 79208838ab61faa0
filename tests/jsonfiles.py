"""JSON file helpers for tests (the CLI reads and writes through cli.Run)."""

import json


def dump_json(obj, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, indent=2) + "\n")


def load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def exact_int(text: str) -> int:
    """The int a run of decimal digits spells, at any length: int() refuses
    past sys.get_int_max_str_digits() digits, so long runs are split in
    halves. Pass it as json.load's parse_int to read huge integers."""
    if len(text) <= 600:
        return int(text)
    half = len(text) // 2
    return exact_int(text[:half]) * 10 ** (len(text) - half) + exact_int(text[half:])
