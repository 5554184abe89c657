"""``python -m rislink``: run the command-line interface."""

from .cli import console_entry

if __name__ == "__main__":
    console_entry()
