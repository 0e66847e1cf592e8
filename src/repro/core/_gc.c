/* GC stage of the mean-field Gaussian posterior in one pass: fold S
 * Monte-Carlo samples' weight gradients into the mu and rho gradients.
 *
 * g, eps and p are (S, n) C-contiguous stacks (the data-fit gradient at the
 * sampled weight, its epsilon and the prior gradient); sigma and sgrad are the
 * step's softplus(rho) and sigmoid(rho), computed by NumPy so the
 * transcendentals keep NumPy's bytes.  Per element and per sample this runs
 * exactly the NumPy body's IEEE operations with the operands in its order,
 * samples accumulated in sample order; built by repro.core.native with
 * -ffp-contract=off and no -ffast-math, so nothing is fused or reassociated
 * and the results are NumPy's bytes.
 */
#include <stddef.h>

int posterior_gc(const double *g, const double *eps, const double *p,
                 const double *sigma, const double *sgrad, size_t samples,
                 size_t n, double kl, int entropy, double *mu_grad,
                 double *rho_grad)
{
    for (size_t i = 0; i < n; i++) {
        double mu = mu_grad[i], rho = rho_grad[i];
        for (size_t s = 0, at = i; s < samples; s++, at += n) {
            double t = g[at] + kl * p[at];
            double sg = eps[at] * t;
            if (entropy)
                sg = sg - kl / sigma[i];
            mu = mu + t;
            rho = rho + sg * sgrad[i];
        }
        mu_grad[i] = mu;
        rho_grad[i] = rho;
    }
    return 0;
}
