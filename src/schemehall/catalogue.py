"""Access to catalogues of small schemes: bundled, cached, or fetched.

The package ships a corpus under schemehall/data/: catalogue/orderNN.txt
with all bundled schemes of each order in concatenated-matrix layout,
schemes/*.scm single scheme files, and groups/*.grp Cayley tables.

fetch_catalogue can also read a local mirror directory or download from
a catalogue site, caching files next to a sha256 sidecar.  Downloads
use the layout <source>/as<order>.txt.  The classification data at
http://kissme.shinshu-u.ac.jp/as is the usual source; tests rely only
on the vendored corpus.

The stdlib modules that only these paths use are imported on first use,
so `import schemehall` does not pay for them: urllib.request on a
download, hashlib on a cache read or write, tempfile on a cache write,
and importlib.resources on the first bundled_* call.
"""
from __future__ import annotations

import os
import re
from pathlib import Path

from .errors import (
    ChecksumMismatchError,
    NetworkUnavailableError,
    UnrecognizedCatalogueFormatError,
)
from .formats import GroupFile, SchemeFile, parse_group, parse_scheme

__all__ = [
    "split_catalogue",
    "fetch_catalogue",
    "bundled_orders",
    "bundled_catalogue",
    "bundled_scheme_names",
    "bundled_scheme",
    "bundled_group_names",
    "bundled_group",
]

DEFAULT_SOURCE = "http://kissme.shinshu-u.ac.jp/as"
CACHE_ENV = "SCHEMEHALL_CACHE_DIR"

_INT_LINE = re.compile(r"^[\s\d]+$")


def split_catalogue(text: str, order: int) -> list[SchemeFile]:
    """Split a concatenated-matrix catalogue file into scheme files.

    Tolerant of the informal upstream layout: lines that are not pure
    whitespace-separated integers are treated as metadata and skipped;
    the remaining integer stream must chop evenly into order x order
    matrices.  Schemes are named scheme{order}_{i}, i the 1-based
    position, matching the catalogue numbering.
    """
    if order < 1:
        raise ValueError(f"scheme order must be at least 1, got {order}")
    tokens: list[int] = []
    for raw in text.splitlines():
        body = raw.split("#", 1)[0]
        if not body.strip():
            continue
        if not _INT_LINE.match(body):
            continue
        tokens.extend(int(t) for t in body.split())

    block = order * order
    if not tokens or len(tokens) % block:
        raise UnrecognizedCatalogueFormatError(
            f"{len(tokens)} integer tokens do not chop into {order}x{order} matrices"
        )
    out = []
    for i in range(len(tokens) // block):
        chunk = tokens[i * block : (i + 1) * block]
        matrix = tuple(
            tuple(chunk[r * order : (r + 1) * order]) for r in range(order)
        )
        rank = len({v for row in matrix for v in row})
        out.append(SchemeFile(f"scheme{order}_{i + 1}", order, rank, matrix))
    return out


def _cache_dir(explicit: str | os.PathLike[str] | None) -> Path:
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "schemehall"


def _sha256(data: bytes) -> str:
    import hashlib

    return hashlib.sha256(data).hexdigest()


def fetch_catalogue(
    order: int,
    source: str = DEFAULT_SOURCE,
    cache_dir: str | os.PathLike[str] | None = None,
    offline: bool = False,
) -> list[SchemeFile]:
    """Schemes of one order from cache, a mirror directory, or the net.

    A fresh download is cached with a sha256 sidecar, each written to a
    temporary file and renamed into place, sidecar first.  Later reads
    verify the sidecar and raise ChecksumMismatchError when the cache was
    tampered with or the sidecar is missing.  offline=True never touches
    the network.
    """
    fname = f"as{order}.txt"
    cache = _cache_dir(cache_dir)
    cached = cache / fname
    sidecar = cached.with_suffix(".txt.sha256")
    if cached.exists():
        data = cached.read_bytes()
        if not sidecar.exists():
            raise ChecksumMismatchError(f"{cached}: no sha256 sidecar, not trusted")
        want = sidecar.read_text().strip()
        got = _sha256(data)
        if want != got:
            raise ChecksumMismatchError(
                f"{cached}: sha256 {got} does not match recorded {want}"
            )
        return split_catalogue(data.decode("utf-8"), order)

    src = Path(source)
    if src.is_dir():
        local = src / fname
        if not local.exists():
            raise NetworkUnavailableError(f"mirror {src} has no {fname}")
        return split_catalogue(local.read_text("utf-8"), order)

    if offline:
        raise NetworkUnavailableError(
            f"offline and {fname} is not cached under {cache}"
        )

    import urllib.error
    import urllib.request

    url = f"{source.rstrip('/')}/{fname}"
    try:
        with urllib.request.urlopen(url, timeout=30) as resp:
            data = resp.read()
    except (urllib.error.URLError, OSError) as exc:
        raise NetworkUnavailableError(f"cannot fetch {url}: {exc}") from exc

    schemes = split_catalogue(data.decode("utf-8"), order)
    cache.mkdir(parents=True, exist_ok=True)
    # the sidecar lands first and the data last, so an interrupted write
    # leaves no data file to read back
    _write_atomic(sidecar, (_sha256(data) + "\n").encode("ascii"))
    _write_atomic(cached, data)
    return schemes


def _write_atomic(path: Path, data: bytes) -> None:
    """Write data to a temporary file next to path, then rename it into place."""
    import tempfile

    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------------------
# vendored corpus

def _data_root():
    from importlib import resources

    return resources.files("schemehall") / "data"


def bundled_orders() -> tuple[int, ...]:
    out = []
    for entry in (_data_root() / "catalogue").iterdir():
        m = re.fullmatch(r"order(\d+)\.txt", entry.name)
        if m:
            out.append(int(m.group(1)))
    return tuple(sorted(out))


def bundled_catalogue(order: int) -> list[SchemeFile]:
    path = _data_root() / "catalogue" / f"order{order:02d}.txt"
    return split_catalogue(path.read_text("utf-8"), order)


def bundled_scheme_names() -> tuple[str, ...]:
    entries = (_data_root() / "schemes").iterdir()
    return tuple(sorted(e.name[:-4] for e in entries if e.name.endswith(".scm")))


def bundled_scheme(name: str) -> SchemeFile:
    path = _data_root() / "schemes" / f"{name}.scm"
    return parse_scheme(path.read_text("utf-8"), name=name)


def bundled_group_names() -> tuple[str, ...]:
    entries = (_data_root() / "groups").iterdir()
    return tuple(sorted(e.name[:-4] for e in entries if e.name.endswith(".grp")))


def bundled_group(name: str) -> GroupFile:
    path = _data_root() / "groups" / f"{name}.grp"
    return parse_group(path.read_text("utf-8"), name=name)
