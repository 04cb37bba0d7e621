"""AWD-LSTM + ULMFiT training pipeline with a degradation-test benchmark.

Modules:
    textpipe    -- tokenization, vocabulary, numericalization, corpus loading
    tensor      -- minimal dense tensors with reverse-mode autodiff
    model       -- AWD-LSTM language model and pooled-head text classifier
    train       -- optimizers, 1cycle schedule, the ULMFiT phases' stage loop
    checkpoint  -- self-describing checkpoint files and atomic writes
    evalbench   -- metrics, degradation suite, top-losses analysis
    cli         -- batch command line and run artifacts
"""

__version__ = "0.1.0"
