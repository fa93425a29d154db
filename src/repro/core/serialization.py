"""Profile serialization.

The paper encodes traces and profiles with protobuf + gzip (Sec. V,
Fig. 17). We substitute a JSON + gzip container: the Fig. 17 comparison
is about *relative* sizes (profile vs. trace), which the substitution
preserves (both formats are compressed with the same codec).

Address/operation models are pluggable (McC vs. STM), so serialization
dispatches on each model's ``MODEL_TYPE`` via small registries. The STM
baseline registers its models on import.
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path
from typing import Callable, Dict, Union

from .atomic import atomic_write_bytes
from .errors import CorruptArtifactError
from .ioutil import read_artifact_bytes
from .leaf import (
    AddressModel,
    LeafModel,
    McCAddressModel,
    McCOperationModel,
    OperationModel,
)
from .mcc import McCModel
from .profile import Profile
from .request import AddressRange

_FORMAT_VERSION = 1

_address_model_loaders: Dict[str, Callable[[dict], AddressModel]] = {
    McCAddressModel.MODEL_TYPE: McCAddressModel.from_dict,
}
_operation_model_loaders: Dict[str, Callable[[dict], OperationModel]] = {
    McCOperationModel.MODEL_TYPE: McCOperationModel.from_dict,
}


def register_address_model(model_type: str, loader: Callable[[dict], AddressModel]) -> None:
    """Register a loader for a custom address model type."""
    _address_model_loaders[model_type] = loader


def register_operation_model(model_type: str, loader: Callable[[dict], OperationModel]) -> None:
    """Register a loader for a custom operation model type."""
    _operation_model_loaders[model_type] = loader


def leaf_to_dict(leaf: LeafModel) -> dict:
    return {
        "start_time": leaf.start_time,
        "count": leaf.count,
        "region": [leaf.region.start, leaf.region.end],
        "delta_time": leaf.delta_time_model.to_dict(),
        "size": leaf.size_model.to_dict(),
        "address": leaf.address_model.to_dict(),
        "operation": leaf.operation_model.to_dict(),
    }


def leaf_from_dict(data: dict) -> LeafModel:
    address_data = data["address"]
    operation_data = data["operation"]
    try:
        address_loader = _address_model_loaders[address_data["type"]]
    except KeyError:
        raise ValueError(f"unknown address model type {address_data['type']!r}") from None
    try:
        operation_loader = _operation_model_loaders[operation_data["type"]]
    except KeyError:
        raise ValueError(f"unknown operation model type {operation_data['type']!r}") from None
    return LeafModel(
        start_time=data["start_time"],
        count=data["count"],
        region=AddressRange(*data["region"]),
        delta_time_model=McCModel.from_dict(data["delta_time"]),
        size_model=McCModel.from_dict(data["size"]),
        address_model=address_loader(address_data),
        operation_model=operation_loader(operation_data),
    )


def profile_to_dict(profile: Profile) -> dict:
    return {
        "format_version": _FORMAT_VERSION,
        "hierarchy": profile.hierarchy,
        "name": profile.name,
        "leaves": [leaf_to_dict(leaf) for leaf in profile],
    }


def profile_from_dict(data: dict) -> Profile:
    if data.get("format_version") != _FORMAT_VERSION:
        raise ValueError(f"unsupported profile format version: {data.get('format_version')}")
    leaves = [leaf_from_dict(leaf) for leaf in data["leaves"]]
    return Profile(leaves, hierarchy=data.get("hierarchy", ""), name=data.get("name", ""))


def save_profile(profile: Profile, path: Union[str, Path]) -> int:
    """Write a gzip-compressed profile; returns the file size in bytes.

    ``mtime=0`` keeps the gzip header timestamp-free, so saving the same
    profile twice always produces byte-identical files. The write is
    atomic (temp file + ``os.replace``): an interrupted save never
    leaves a truncated profile at ``path``.
    """
    payload = json.dumps(profile_to_dict(profile), separators=(",", ":")).encode("ascii")
    return atomic_write_bytes(path, gzip.compress(payload, mtime=0))


def load_profile(path: Union[str, Path]) -> Profile:
    """Read a profile file.

    Raises :class:`CorruptArtifactError` (a ``ValueError``) naming the
    path on truncated gzip streams or malformed payloads; a file that
    cannot be opened raises the ``OSError`` that says why.
    """
    payload = read_artifact_bytes(path, require_gzip=True, what="gzip profile file")
    try:
        data = json.loads(payload.decode("ascii", errors="strict"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise CorruptArtifactError(path, f"corrupt profile payload ({error})") from error
    try:
        return profile_from_dict(data)
    except (KeyError, TypeError, IndexError) as error:
        raise CorruptArtifactError(
            path, f"malformed profile structure ({error})"
        ) from error


def profile_size_bytes(profile: Profile) -> int:
    """Compressed size of a profile without touching disk (Fig. 17)."""
    payload = json.dumps(profile_to_dict(profile), separators=(",", ":")).encode("ascii")
    return len(gzip.compress(payload, mtime=0))
