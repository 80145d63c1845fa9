module relcomp/relbench

go 1.24

require relcomp v0.0.0

replace relcomp => ../
