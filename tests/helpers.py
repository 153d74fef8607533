"""Builders shared by the test modules."""

import numpy as np

import multidist as md


def family_from_arrays(mass_matrix, label_prob_matrix) -> md.DistributionFamily:
    """A family from a (k, n) mass array and a (k, n) or shared (n,) array of
    label probabilities."""
    mass = np.asarray(mass_matrix, dtype=np.float64)
    eta = np.broadcast_to(np.asarray(label_prob_matrix, dtype=np.float64), mass.shape)
    members = tuple(md.LabeledDistribution(m, e) for m, e in zip(mass, eta))
    return md.DistributionFamily(md.Domain(mass.shape[1]), members)
