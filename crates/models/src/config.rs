//! Model hyperparameters.

/// Transformer hyperparameters shared by all zoo models.
///
/// # Examples
///
/// ```
/// use entangle_models::ModelConfig;
///
/// let cfg = ModelConfig { layers: 2, ..ModelConfig::tiny() };
/// assert_eq!(cfg.head_dim(), cfg.hidden / cfg.heads);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelConfig {
    /// Batch size.
    pub batch: usize,
    /// Sequence length.
    pub seq: usize,
    /// Hidden (model) dimension.
    pub hidden: usize,
    /// Number of attention heads (`hidden % heads == 0`).
    pub heads: usize,
    /// Number of transformer layers.
    pub layers: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// FFN inner dimension.
    pub ffn: usize,
    /// Causal attention mask.
    pub causal: bool,
}

impl ModelConfig {
    /// A laptop-sized configuration used throughout the tests.
    pub fn tiny() -> ModelConfig {
        ModelConfig {
            batch: 2,
            seq: 8,
            hidden: 16,
            heads: 4,
            layers: 1,
            vocab: 32,
            ffn: 32,
            causal: true,
        }
    }

    /// The per-head dimension.
    ///
    /// # Panics
    ///
    /// Panics when `hidden` is not divisible by `heads`.
    pub fn head_dim(&self) -> usize {
        assert_eq!(self.hidden % self.heads, 0, "hidden must divide by heads");
        self.hidden / self.heads
    }

    /// Returns a copy with a different layer count (Figure 4 sweeps).
    pub fn with_layers(&self, layers: usize) -> ModelConfig {
        ModelConfig {
            layers,
            ..self.clone()
        }
    }
}

/// Mixture-of-experts extension of [`ModelConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MoeConfig {
    /// The base transformer configuration.
    pub base: ModelConfig,
    /// Number of experts per MoE layer.
    pub experts: usize,
}

impl MoeConfig {
    /// A laptop-sized MoE configuration.
    pub fn tiny() -> MoeConfig {
        MoeConfig {
            base: ModelConfig::tiny(),
            experts: 4,
        }
    }

    /// Returns a copy with a different layer count: a deep MoE *stack*,
    /// each layer carrying its own router, experts and load-balance head
    /// (the deep models of `tests/templates.rs`).
    pub fn with_layers(&self, layers: usize) -> MoeConfig {
        MoeConfig {
            base: self.base.with_layers(layers),
            experts: self.experts,
        }
    }
}
