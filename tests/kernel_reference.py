"""The kernel of a linear map by witnessed elimination: the route the
package read Ann f, the filtration ideals and the colon and joint spaces of
constructions by, before each was read by duality as an orthogonal.  Kept
here as the reference those readouts are tested against."""

from macdual.fields import Field
from macdual.linalg import Echelon, _div


def kernel(field: Field, images) -> list[dict]:
    """Basis of the kernel of the linear map sending the i-th unit vector to
    images[i], as sparse dicts over the positions i.

    The images' keys are relabelled to 0..n-1 in sorted order, and image i
    carries its witness e_i at column n + i.  Each is reduced once against
    the images kept so far: a remainder with a column below n becomes a
    row, any other leaves a kernel vector in columns n and past.  Its entry
    at n + i is the product of the factors fraction-free reduction
    multiplied it by (one over F_p), and the vector is returned divided by
    it, one division per kernel vector: the unique kernel vector supported
    on i and the stored images with 1 at i.  Entries are canonical (over Q,
    ints whenever the denominator is one)."""
    images = list(images)
    col = {k: c for c, k in enumerate(sorted({k for img in images
                                              for k in img}))}
    n = len(col)
    ech = Echelon(field)
    out = []
    for i, img in enumerate(images):
        rem = ech.reduce({**{col[k]: a for k, a in img.items()},
                          n + i: field.one})
        if min(rem) < n:
            ech.store(rem)
            continue
        d = rem[n + i]
        out.append({k - n: a if d == 1 else _div(a, d)
                    for k, a in rem.items()})
    return out
