# lint-path: repro/core/tracefile.py
from pathlib import Path


def slurp(path):
    with open(path, "rb") as handle:
        everything = handle.read()  # EXPECT: io-unbounded-read
        again = handle.read(-1)  # EXPECT: io-unbounded-read
        also = handle.read(None)  # EXPECT: io-unbounded-read
    raw = Path(path).read_bytes()  # EXPECT: io-unbounded-read
    text = Path(path).read_text()  # EXPECT: io-unbounded-read
    return everything, again, also, raw, text
