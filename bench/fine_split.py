"""External fine backend for the paper_external workload.

Usage: python fine_split.py INPUT.nii[.gz] OUTPUT.nii[.gz]

Reconstructs the phantom's three classes from intensity alone: the wall
from the middle band, the cavities from the bright band, split into left
(class 3, lower x) and right (class 2) atrium by connected-component
centroid.  With the phantom's noise amplitude of 0.05 the bands do not
overlap, so the result equals the ground truth inside the window.
"""
import sys

import numpy as np
from scipy import ndimage

from biatrium import read_volume
from biatrium.nifti import write_nifti


def main(src: str, dst: str) -> None:
    v = read_volume(src)
    d = v.data
    labels = np.zeros(d.shape, dtype=np.uint8)
    labels[(d >= 0.3) & (d < 0.7)] = 1
    cavity = d >= 0.7
    comp, n = ndimage.label(cavity)
    if n:
        centroids = ndimage.center_of_mass(cavity, comp, range(1, n + 1))
        order = sorted(range(1, n + 1), key=lambda i: centroids[i - 1][0])
        labels[comp == order[0]] = 3
        for i in order[1:]:
            labels[comp == i] = 2
    write_nifti(dst, labels, v.spacing)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
