"""JSON file helpers for tests (the CLI reads and writes through cli.Run)."""

import json


def dump_json(obj, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, indent=2) + "\n")


def load_json(path: str):
    with open(path) as fh:
        return json.load(fh)
