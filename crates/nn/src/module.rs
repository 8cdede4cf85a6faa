//! The [`Module`] trait and composite containers.

use dlsr_tensor::{Result, Tensor};

use crate::param::Param;

/// A differentiable network component.
///
/// Contract:
/// - `forward` caches whatever context `backward` needs (typically its
///   input). Calling `backward` without a preceding `forward` is a logic
///   error and panics.
/// - `backward` consumes the cached context, **accumulates** gradients into
///   its parameters, and returns the gradient with respect to its input.
/// - `visit_params` walks parameters in a deterministic order that is stable
///   across ranks and runs (required by gradient synchronization).
pub trait Module: Send {
    /// Forward pass (training mode: caches context for backward).
    fn forward(&mut self, x: &Tensor) -> Result<Tensor>;

    /// Backward pass: returns dL/d(input), accumulates parameter grads.
    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor>;

    /// Backward pass with a gradient-readiness hook: `hook` fires once per
    /// parameter, as soon as that parameter's gradient has reached its
    /// final value for this step, in **reverse [`Module::visit_params`]
    /// order** (output layers first — the order backward finalizes them).
    /// This is what lets a distributed optimizer launch fused allreduces
    /// while backward is still running on earlier layers.
    ///
    /// Gradients and the returned input-gradient are identical to
    /// [`Module::backward`]; the default implementation literally runs
    /// `backward` and then fires the hook for every parameter. Composite
    /// modules override it to fire hooks incrementally between children.
    fn backward_with_hook(
        &mut self,
        grad_out: &Tensor,
        hook: &mut dyn FnMut(&mut Param),
    ) -> Result<Tensor> {
        let g = self.backward(grad_out)?;
        let mut n = 0usize;
        self.visit_params(&mut |_| n += 1);
        // fire in reverse visit order (quadratic walk, but leaf modules
        // hold one or two params)
        for target in (0..n).rev() {
            let mut i = 0usize;
            self.visit_params(&mut |p| {
                if i == target {
                    hook(p);
                }
                i += 1;
            });
        }
        Ok(g)
    }

    /// Visit every trainable parameter (deterministic order).
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Forward pass without caching (inference). Default: forward.
    fn predict(&mut self, x: &Tensor) -> Result<Tensor> {
        self.forward(x)
    }
}

/// Helpers available on any module.
pub trait ModuleExt: Module {
    /// Collect `(name, numel)` for every parameter.
    fn param_summary(&mut self) -> Vec<(String, usize)> {
        let mut out = Vec::new();
        self.visit_params(&mut |p| out.push((p.name.clone(), p.numel())));
        out
    }

    /// Total trainable scalar count.
    fn num_params(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.numel());
        n
    }

    /// Zero every parameter gradient.
    fn zero_grads(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Flatten all parameter *values* into one buffer (deterministic order).
    fn flatten_params(&mut self) -> Vec<f32> {
        let mut out = Vec::new();
        self.visit_params(&mut |p| out.extend_from_slice(p.value.data()));
        out
    }

    /// Overwrite all parameter values from a flat buffer produced by
    /// [`ModuleExt::flatten_params`] on a module of identical architecture.
    fn load_flat_params(&mut self, flat: &[f32]) {
        let mut off = 0usize;
        self.visit_params(&mut |p| {
            let n = p.numel();
            p.value.data_mut().copy_from_slice(&flat[off..off + n]);
            off += n;
        });
        assert_eq!(off, flat.len(), "flat parameter buffer length mismatch");
    }

    /// Flatten all parameter *gradients* into one buffer.
    fn flatten_grads(&mut self) -> Vec<f32> {
        let mut out = Vec::new();
        self.visit_params(&mut |p| out.extend_from_slice(p.grad.data()));
        out
    }

    /// Overwrite all gradients from a flat buffer (after an allreduce).
    fn load_flat_grads(&mut self, flat: &[f32]) {
        let mut off = 0usize;
        self.visit_params(&mut |p| {
            let n = p.numel();
            p.grad.data_mut().copy_from_slice(&flat[off..off + n]);
            off += n;
        });
        assert_eq!(off, flat.len(), "flat gradient buffer length mismatch");
    }
}

impl<M: Module + ?Sized> ModuleExt for M {}

/// A sequence of modules applied in order.
pub struct Sequential {
    mods: Vec<Box<dyn Module>>,
}

impl Sequential {
    /// Empty sequence.
    pub fn new() -> Self {
        Sequential { mods: Vec::new() }
    }

    /// Append a module (builder style).
    pub fn push(mut self, m: impl Module + 'static) -> Self {
        self.mods.push(Box::new(m));
        self
    }

    /// Number of children.
    pub fn len(&self) -> usize {
        self.mods.len()
    }

    /// True when the sequence has no children.
    pub fn is_empty(&self) -> bool {
        self.mods.is_empty()
    }
}

impl Default for Sequential {
    fn default() -> Self {
        Self::new()
    }
}

impl Module for Sequential {
    fn forward(&mut self, x: &Tensor) -> Result<Tensor> {
        let mut cur = x.clone();
        for m in &mut self.mods {
            cur = m.forward(&cur)?;
        }
        Ok(cur)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let mut g = grad_out.clone();
        for m in self.mods.iter_mut().rev() {
            g = m.backward(&g)?;
        }
        Ok(g)
    }

    fn backward_with_hook(
        &mut self,
        grad_out: &Tensor,
        hook: &mut dyn FnMut(&mut Param),
    ) -> Result<Tensor> {
        let mut g = grad_out.clone();
        for m in self.mods.iter_mut().rev() {
            g = m.backward_with_hook(&g, hook)?;
        }
        Ok(g)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for m in &mut self.mods {
            m.visit_params(f);
        }
    }

    fn predict(&mut self, x: &Tensor) -> Result<Tensor> {
        let mut cur = x.clone();
        for m in &mut self.mods {
            cur = m.predict(&cur)?;
        }
        Ok(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Scale;

    #[test]
    fn sequential_composes_forward_and_backward() {
        // y = (2x) * 3 → dy/dx = 6
        let mut s = Sequential::new()
            .push(Scale::new(2.0))
            .push(Scale::new(3.0));
        let x = Tensor::from_vec([2], vec![1.0, -1.0]).unwrap();
        let y = s.forward(&x).unwrap();
        assert_eq!(y.data(), &[6.0, -6.0]);
        let g = s.backward(&Tensor::ones([2])).unwrap();
        assert_eq!(g.data(), &[6.0, 6.0]);
    }

    #[test]
    fn flatten_load_round_trip() {
        use crate::layers::Conv2d;
        let mut a = Conv2d::new("c", 2, 3, 3, Default::default(), 1);
        let mut b = Conv2d::new("c", 2, 3, 3, Default::default(), 2);
        assert_ne!(a.flatten_params(), b.flatten_params());
        let flat = a.flatten_params();
        b.load_flat_params(&flat);
        assert_eq!(a.flatten_params(), b.flatten_params());
    }

    #[test]
    fn num_params_counts() {
        use crate::layers::Conv2d;
        let mut c = Conv2d::new("c", 2, 4, 3, Default::default(), 1);
        // weight 4*2*3*3 + bias 4
        assert_eq!(c.num_params(), 72 + 4);
    }

    #[test]
    fn backward_with_hook_fires_reverse_visit_order_with_final_grads() {
        use crate::layers::Conv2d;
        use dlsr_tensor::init;
        let build = |seed: u64| {
            Sequential::new()
                .push(Conv2d::new("a", 2, 3, 3, Default::default(), seed))
                .push(Conv2d::new("b", 3, 2, 3, Default::default(), seed + 1))
        };
        let x = init::uniform([1, 2, 7, 7], -1.0, 1.0, 5);

        let mut plain = build(9);
        let y = plain.forward(&x).unwrap();
        let gy = Tensor::ones(y.shape().clone());
        let g_plain = plain.backward(&gy).unwrap();
        let mut final_grads = Vec::new();
        plain.visit_params(&mut |p| final_grads.push((p.name.clone(), p.grad.data().to_vec())));

        let mut hooked = build(9);
        hooked.forward(&x).unwrap();
        let mut fired = Vec::new();
        let g_hooked = hooked
            .backward_with_hook(&gy, &mut |p| {
                fired.push((p.name.clone(), p.grad.data().to_vec()))
            })
            .unwrap();

        // input gradient identical to the plain path
        assert_eq!(g_plain.data(), g_hooked.data());
        // one hook per param, in exact reverse visit order
        let visit_names: Vec<String> = final_grads.iter().map(|(n, _)| n.clone()).collect();
        let fired_names: Vec<String> = fired.iter().map(|(n, _)| n.clone()).collect();
        let mut want = visit_names.clone();
        want.reverse();
        assert_eq!(fired_names, want);
        // gradients observed at fire time are the final values
        for (name, grad_at_fire) in &fired {
            let (_, final_grad) = final_grads.iter().find(|(n, _)| n == name).unwrap();
            assert_eq!(grad_at_fire, final_grad, "{name} grad not final at hook");
        }
    }

    #[test]
    fn default_hook_impl_covers_unoverridden_modules() {
        use crate::layers::Linear;
        use dlsr_tensor::init;
        let mut lin = Linear::new("l", 4, 3, 11);
        let x = init::uniform([2, 4], -1.0, 1.0, 12);
        lin.forward(&x).unwrap();
        let mut names = Vec::new();
        lin.backward_with_hook(&Tensor::ones([2, 3]), &mut |p| names.push(p.name.clone()))
            .unwrap();
        // Linear visits weight then bias ⇒ hooks fire bias then weight
        assert_eq!(names, vec!["l.bias".to_string(), "l.weight".to_string()]);
    }
}
