# lint-path: repro/tools/fake.py
import gzip
from pathlib import Path

from repro.core.atomic import atomic_write_bytes, atomic_write_text


def roundtrip(path, payload):
    atomic_write_text(path, payload)
    atomic_write_bytes(path, payload.encode())
    with open(path) as handle:
        text = handle.read()
    with gzip.open(path, "rb") as handle:
        blob = handle.read()
    return text, blob, Path(path).read_text()
