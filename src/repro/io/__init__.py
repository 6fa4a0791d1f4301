"""Binary IO: SDRB-style raw field files and the compressed container."""

from .container import (
    Container,
    ContainerReport,
    ContainerSection,
    SectionStatus,
)
from .sdrb import read_raw_field, write_raw_field

__all__ = [
    "Container",
    "ContainerReport",
    "ContainerSection",
    "SectionStatus",
    "read_raw_field",
    "write_raw_field",
]
