"""Desk-scale unified image-text contrastive pretraining ecosystem."""

__version__ = "0.1.0"
