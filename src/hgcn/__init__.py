"""Heterogeneous graph convolutional network for multi-label text classification."""
