"""``python -m ringbf``: the same command line as the ``ringbf`` script."""
from .io_cli import main

if __name__ == "__main__":
    main()
