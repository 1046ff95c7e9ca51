from perf.run import main

raise SystemExit(main())
