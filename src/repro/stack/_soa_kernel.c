/* Native chain-walk kernel for the struct-of-arrays KRR stack.
 *
 * The streaming hot loop of repro.stack.soa.SoAKRRStack: per request,
 * look up the key's slot, record the pre-update distance, then walk the
 * backward update's inverse-CDF swap chain (Algorithm 2) over the flat
 * stack array with EXACTLY the arithmetic of the Python mirror
 * (SoAKRRStack._walk_python) and of the KRRStack oracle — `v = buf[bpos]
 * * j`, truncate, `y = t < v ? t : t - 1` — so both are draw-for-draw and
 * slot-for-slot identical.  The draws come from Python
 * (repro.core.updates.backward_draw_block); when they run dry mid-chain
 * the kernel checkpoints into `state` and returns 0 so the caller can
 * refill and resume.
 *
 * With the sizeArray on (state[8] = base > 0) the walk also keeps the
 * §4.4.1 prefix byte sums: anchor a covers positions 1..bounds[a] =
 * base^a.  A cold access appends and may open an anchor; a hit first
 * reads its byte distance (Algorithm 3), then every anchor >= phi takes
 * the object's size change and every anchor B < phi is patched once, by
 * the resident read at the first chain slot <= B - 1 (the one that
 * leaves the prefix as the referenced object enters it).  Built with
 * -ffp-contract=off by repro.stack._native, so the interpolation rounds
 * like Python.
 *
 * state layout (int64 x 11):
 *   [0] next_i       next request index to start (or the one mid-chain)
 *   [1] n_stack      current stack depth
 *   [2] bpos         cursor into the draw buffer
 *   [3] cur_j        0 = between accesses; >0 = interrupted chain slot
 *   [4] total_swaps  cumulative swap-set size (Fig 5.4 cost proxy)
 *   [5] cur_ref      referenced key id of the interrupted chain
 *   [6] n_anchors    sizeArray anchors in use
 *   [7] total_bytes  bytes on the whole stack
 *   [8] base         sizeArray anchor base; 0 = no sizeArray
 *   [9] cur_anchor   next anchor the interrupted chain patches (-1 = none)
 *   [10] cur_size    new size of the interrupted chain's object
 *
 * Returns 1 when all n requests are processed, 0 when the draw buffer is
 * exhausted (refill buf, reset state[2] to 0, call again).
 */

#include <stdint.h>

/* Algorithm 3: interpolated bytes in stack positions 1..phi. */
static double byte_distance(int64_t phi, const int64_t *bounds,
                            const int64_t *sums, int64_t n_anchors,
                            int64_t length, int64_t total)
{
    int64_t idx = n_anchors - 1;
    int64_t sd_low, low, sd_high, high;
    double frac;
    while (bounds[idx] > phi)
        idx--;                /* bounds[0] = 1 <= phi always */
    sd_low = bounds[idx];
    low = sums[idx];
    if (sd_low == phi)
        return (double)low;
    if (idx + 1 < n_anchors) {
        sd_high = bounds[idx + 1];
        high = sums[idx + 1];
    } else {                  /* past the last anchor: the full stack */
        sd_high = length;
        high = total;
        if (sd_high == sd_low)
            return (double)low;
    }
    frac = (double)(phi - sd_low) / (double)(sd_high - sd_low);
    return (double)low + (double)(high - low) * frac;
}

int64_t krr_backward_chunk(
    const int64_t *kids,      /* dense key ids, one per request */
    int64_t n,                /* number of requests in the chunk */
    const int64_t *req_sizes, /* per-request size; NULL = keep sizes
                                 (only without a sizeArray) */
    int64_t *stack,           /* slot -> key id, top of stack at 0 */
    int64_t *pos,             /* key id -> slot, -1 = not resident */
    int64_t *sizes,           /* key id -> last-written size */
    const double *buf,        /* transformed draws (1-U)^(1/K) */
    int64_t block,            /* draw buffer length */
    int64_t *distances,       /* out: pre-update distance, -1 = cold */
    double *byte_distances,   /* out: sizeArray estimate, -1 = cold */
    int64_t *anchors,         /* [bounds x 64 | sums x 64] */
    int64_t *state)           /* persistent cursor state, see above */
{
    int64_t *bounds = anchors;
    int64_t *sums = anchors + 64;
    int64_t i = state[0];
    int64_t n_stack = state[1];
    int64_t bpos = state[2];
    int64_t j = state[3];
    int64_t swaps = state[4];
    int64_t ref = state[5];
    int64_t n_anchors = state[6];
    int64_t total = state[7];
    const int64_t base = state[8];
    int64_t a = state[9];
    int64_t s = state[10];

    while (i < n || j > 0) {
        if (j == 0) {
            int64_t kid = kids[i];
            int64_t p = pos[kid];
            int64_t phi, delta = 0;
            s = req_sizes ? req_sizes[i] : 1;
            if (p < 0) {
                stack[n_stack] = kid;
                pos[kid] = n_stack;
                n_stack++;
                phi = n_stack;
                distances[i] = -1;
                if (base) {
                    int64_t next = n_anchors ? bounds[n_anchors - 1] * base : 1;
                    total += s;
                    if (n_stack == next) {
                        bounds[n_anchors] = next;
                        sums[n_anchors] = total;
                        n_anchors++;
                    }
                    byte_distances[i] = -1.0;
                }
            } else {
                phi = p + 1;
                distances[i] = phi;
                if (base) {
                    byte_distances[i] = byte_distance(
                        phi, bounds, sums, n_anchors, n_stack, total);
                    delta = s - sizes[kid];
                    total += delta;
                }
            }
            if (req_sizes)
                sizes[kid] = s;
            /* Anchors at or past phi keep their members; only the
             * referenced object's size may have changed. */
            a = n_anchors - 1;
            while (a >= 0 && bounds[a] >= phi) {
                sums[a] += delta;
                a--;
            }
            i++;
            swaps += 1;           /* position phi always swaps */
            j = phi - 1;
            if (j == 0)
                continue;         /* referenced already on top */
            ref = stack[j];
        }
        while (j > 0) {
            double v;
            int64_t t, y, moved;
            if (bpos >= block) {
                state[0] = i; state[1] = n_stack; state[2] = bpos;
                state[3] = j; state[4] = swaps; state[5] = ref;
                state[6] = n_anchors; state[7] = total;
                state[9] = a; state[10] = s;
                return 0;         /* draws exhausted: refill and resume */
            }
            /* Zero-based inverse-CDF step: y = ceil(u^(1/K) * j) - 1,
             * u in (0, 1] makes the result land in [0, j-1] already. */
            v = buf[bpos++] * (double)j;
            t = (int64_t)v;
            y = ((double)t < v) ? t : t - 1;
            moved = stack[y];
            /* `moved` leaves every prefix 1..B with y < B < phi not yet
             * patched by a deeper chain slot. */
            while (a >= 0 && bounds[a] > y) {
                sums[a] += s - sizes[moved];
                a--;
            }
            stack[j] = moved;
            pos[moved] = j;
            swaps += 1;
            j = y;
        }
        stack[0] = ref;
        pos[ref] = 0;
    }
    state[0] = i; state[1] = n_stack; state[2] = bpos;
    state[3] = 0; state[4] = swaps; state[5] = -1;
    state[6] = n_anchors; state[7] = total;
    state[9] = -1; state[10] = 0;
    return 1;
}
