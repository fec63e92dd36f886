"""Feature fields and the combined pixel/channel group action: the tests'
reference for how a group element acts on a layer's input and output."""

from dataclasses import dataclass

import numpy as np

from equipomdp.groups import GroupError, Representation, spatial_transform


@dataclass(frozen=True)
class FeatureField:
    """Values carrying a representation, optionally spread over an HxW grid."""

    rep: Representation
    values: np.ndarray
    spatial: tuple[int, int] | None = None

    def __post_init__(self):
        want = (self.rep.dim,) if self.spatial is None else (self.rep.dim, *self.spatial)
        if self.values.shape != want:
            raise GroupError(
                f"field values shape {self.values.shape} != expected {want}"
            )


def act_on_field(g: int, field: FeatureField) -> FeatureField:
    """Transform a field: pixel permutation first, then the channel matrix."""
    group = field.rep.group
    g = group.check_element(g)
    vals = field.values
    if field.spatial is not None:
        vals = spatial_transform(group, g, vals)
    rho = field.rep.matrix(g)
    if field.spatial is None:
        out = rho @ vals
    else:
        out = (rho @ vals.reshape(field.rep.dim, -1)).reshape(vals.shape)
    return FeatureField(field.rep, out, field.spatial)
